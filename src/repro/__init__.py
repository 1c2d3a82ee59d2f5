"""SlackSim reproduction: slack-based parallel CMP-on-CMP simulation.

Reproduces *Exploiting Simulation Slack to Improve Parallel Simulation
Speed* (Chen, Annavaram, Dubois — ICPP 2009).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.

Public API highlights
---------------------
- :mod:`repro.isa` / :mod:`repro.lang`: the SPISA toolchain (assembler and
  the Slang mini-C compiler).
- :mod:`repro.core`: the slack simulation engine — schemes ``cc``, ``qN``,
  ``lN``, ``sN``, ``sN*``, ``su`` on the deterministic sequential engine.
- :mod:`repro.workloads`: SPLASH-2-style parallel benchmarks (fft, lu,
  barnes, water) plus synthetic trace workloads.
- :mod:`repro.experiments`: one entry point per paper table/figure.
"""

__version__ = "1.0.0"
