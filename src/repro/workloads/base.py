"""Workload plumbing shared by the SPLASH-2-style benchmarks.

Each benchmark module provides a ``make_*`` factory returning a
:class:`Workload`: the compiled Slang program, the parameters, and a numpy
*oracle* — the expected printed output computed independently in Python.
Benchmarks seed their data with the same 31-bit LCG in both worlds
(:func:`lcg_stream`), so functional correctness is checked end-to-end:
Slang compiler -> SPISA -> timing core -> slack engine vs numpy.

The paper's §3.2.3 observation — "the benchmarks we have tested still
execute correctly" under slack — becomes an executable assertion:
``workload.verify(result.output)`` must hold for *every* scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import compile_source
from repro.isa.program import Program

__all__ = ["Workload", "lcg_stream", "LCG_MULT", "LCG_ADD", "LCG_MOD", "SLANG_LCG"]

LCG_MULT = 1103515245
LCG_ADD = 12345
LCG_MOD = 1 << 31


def lcg_stream(seed: int, count: int) -> list[float]:
    """The shared pseudo-random stream: floats in [0, 1)."""
    values = []
    x = seed % LCG_MOD
    for _ in range(count):
        x = (x * LCG_MULT + LCG_ADD) % LCG_MOD
        values.append(x / LCG_MOD)
    return values


#: Slang implementation of the same generator (include in benchmark sources).
SLANG_LCG = """
int lcg_state;
float lcg_next() {
    lcg_state = (lcg_state * 1103515245 + 12345) % (1 << 31);
    return (float) lcg_state / 2147483648.0;
}
"""


@dataclass
class Workload:
    """A compiled benchmark plus its verification oracle."""

    name: str
    program: Program
    params: dict
    expected_output: list
    tolerance: float = 1e-9
    #: Short description for Table 2's "Input Set" column.
    input_set: str = ""
    source: str = field(default="", repr=False)

    def verify(self, output: list) -> bool:
        """Check a simulation's printed output against the oracle."""
        return not self.mismatches(output)

    def mismatches(self, output: list) -> list[str]:
        """Human-readable list of output mismatches (empty = correct)."""
        problems = []
        if len(output) != len(self.expected_output):
            problems.append(
                f"{self.name}: expected {len(self.expected_output)} output values, got {len(output)}"
            )
            return problems
        for i, (got, want) in enumerate(zip(output, self.expected_output)):
            if isinstance(want, float):
                scale = max(abs(want), 1.0)
                if not isinstance(got, float) or abs(got - want) > self.tolerance * scale:
                    problems.append(f"{self.name}[{i}]: expected {want!r}, got {got!r}")
            else:
                if got != want:
                    problems.append(f"{self.name}[{i}]: expected {want!r}, got {got!r}")
        return problems


def build(name: str, source: str, params: dict, expected: list, tolerance: float, input_set: str) -> Workload:
    """Compile *source* and wrap it as a Workload."""
    compiled = compile_source(source, name=name)
    return Workload(
        name=name,
        program=compiled.program,
        params=params,
        expected_output=expected,
        tolerance=tolerance,
        input_set=input_set,
        source=source,
    )
