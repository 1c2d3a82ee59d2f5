#!/usr/bin/env python
"""Parent-vs-change iso matrix: is an engine change a pure speedup?

One cell per scale x workload x scheme x host count.  Each cell records what
an iso-digest, iso-host-time change must hold fixed: target cycles, the stats
digest, the modeled host time and busy time bit for bit (``float.hex``),
``host.steps`` and every ``engine.*`` counter of the stats dump.  Run it once
per checkout and compare::

    python benchmarks/iso_matrix.py --src /path/to/parent/src --out parent.json
    python benchmarks/iso_matrix.py --out change.json
    python benchmarks/iso_matrix.py --compare parent.json change.json

``--compare`` prints one line per differing field (and per cell present on
one side only) and exits 1 when there is any; no output means iso.  Building
holds one equivalence inside a checkout as well: a ``NAME:replay`` cell must
equal the ``NAME`` cell of the same scale/scheme/hosts in every compared field
(replay is the direct run's pipeline behind another front end, DESIGN.md §11)
— a difference is printed to stderr and the build exits 1.

Workload tokens are the registered names, ``sharing`` (the coherence-dense
8-core trace of the repo benchmark's ``mem-traffic``), ``sharing:think``
(``sharing_workload``'s defaults: think stretches between sparser, mostly
private accesses), ``pingpong`` (8 trace cores writing one block), ``NAME:ooo`` /
``NAME:replay`` (the out-of-order core model; a replay of an ``su`` capture)
and ``NAME:func`` — the functional interpreter on the ``nthreads=1`` program,
one cell per scale (no scheme, no host): instruction count, exit code, output
digest and the final ``ArchState.digest()``.
Seeds are ``derive_seed(--seed, workload, scheme, hosts)``, the sweep's and
the repo benchmark's rule.  The default schemes cover every scheme family
``parse_scheme`` accepts (quote a ``--schemes`` list that holds ``s9*``: it
is a shell glob).  The default workloads cover every core model: in-order,
the three trace workloads, replay (``fft:replay``: barriers only;
``water:replay``: locks, barriers and joins), out-of-order (``fft:ooo``,
``water:ooo``, the repo benchmark's two ``ooo`` jobs) and the interpreter on
every registered workload (each one's single-thread lock and barrier path
through the system emulation).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

SCALES = ("tiny", "small")
WORKLOADS = (
    "barnes", "fft", "lu", "water", "sharing", "sharing:think", "pingpong",
    "fft:replay", "water:replay", "fft:ooo", "water:ooo",
    "barnes:func", "fft:func", "lu:func", "ocean:func", "radix:func", "water:func",
)
SCHEMES = ("cc", "q3", "q10", "aq10-160", "l10", "s9", "s9*", "s100", "su")
HOSTS = (1, 2, 8)

#: ``sharing`` ops per core by scale (``small`` is mem-traffic's job); also
#: ``pingpong``'s rounds per core.
SHARING_OPS = {"tiny": 300, "small": 3000, "paper": 30000}


def run_functional_cell(scale: str, name: str) -> dict:
    from repro._util import output_digest
    from repro.cpu.interp import run_functional
    from repro.workloads.registry import make_workload

    result = run_functional(make_workload(name, scale=scale, nthreads=1).program)
    return {
        "instructions": result.instructions,
        "exit_code": result.exit_code,
        "output": output_digest(result.output),
        "state": result.state.digest(),
    }


def run_cell(scale: str, token: str, scheme: str, hosts: int, base_seed: int, tmp: Path) -> dict:
    from repro.core import HostConfig, SimConfig, TargetConfig
    from repro.core.engine import SequentialEngine
    from repro.experiments.parallel import derive_seed
    from repro.workloads.registry import make_workload
    from repro.workloads.synthetic import pingpong_workload, sharing_workload

    name, _, variant = token.partition(":")
    sim = SimConfig(scheme=scheme, seed=derive_seed(base_seed, name, scheme, hosts))
    host = HostConfig(num_cores=hosts)
    if name in ("sharing", "pingpong"):
        ops = SHARING_OPS[scale]
        if name == "pingpong":
            trace_cores = pingpong_workload(8, ops)
        elif variant == "think":
            trace_cores = sharing_workload(8, ops, seed=base_seed)
        else:
            trace_cores = sharing_workload(
                8, ops, shared_fraction=0.8, write_fraction=0.5,
                think_cycles=0, shared_blocks=256, seed=base_seed,
            )
        engine = SequentialEngine(
            None, trace_cores=trace_cores,
            target=TargetConfig(num_cores=8, core_model="trace"),
            host=host, sim=sim,
        )
    else:
        program = make_workload(name, scale=scale).program
        if variant == "replay":
            path = tmp / f"{scale}-{name}.trace"  # one capture serves every cell
            if not path.exists():
                SequentialEngine(
                    program,
                    sim=SimConfig(scheme="su", seed=base_seed,
                                  trace_mode="capture", trace_path=str(path)),
                ).run()
            sim = SimConfig(scheme=scheme, seed=sim.seed,
                            trace_mode="replay", trace_path=str(path))
        target = TargetConfig(core_model="ooo" if variant == "ooo" else "inorder")
        engine = SequentialEngine(program, target=target, host=host, sim=sim)
    result = engine.run()
    stats = result.stats
    cell = {
        "completed": result.completed,
        "cycles": result.execution_cycles,
        "digest": result.stats_sha256,
        "host_time": float(result.host_time).hex(),
        "host_busy": float(result.host_busy).hex(),
        "host.steps": stats["host.steps"],
    }
    cell.update((k, v) for k, v in sorted(stats.items()) if k.startswith("engine."))
    # Not compared (a checkout without the barrier superstep has no such
    # counter): how many barriers ran fused, of how many.
    fused = getattr(engine, "fused_barriers", None)
    if fused is not None:
        cell["info"] = {"fused_barriers": fused, "barriers": result.barriers}
    return cell


def build(args) -> int:
    src = args.src or Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(Path(src).resolve()))
    cells = {}
    with tempfile.TemporaryDirectory(prefix="iso-matrix-") as tmp:
        for scale in args.scales:
            for token in args.workloads:
                name, _, variant = token.partition(":")
                if variant == "func":
                    key = f"{scale}/{token}"
                    cells[key] = run_functional_cell(scale, name)
                    print(key, cells[key]["instructions"], file=sys.stderr, flush=True)
                    continue
                for scheme in args.schemes:
                    for hosts in args.hosts:
                        key = f"{scale}/{token}/{scheme}/h{hosts}"
                        cells[key] = run_cell(scale, token, scheme, hosts, args.seed, Path(tmp))
                        print(key, cells[key]["cycles"], cells[key]["host_time"],
                              file=sys.stderr, flush=True)
    text = json.dumps({"seed": args.seed, "cells": cells}, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    diffs = 0
    for key, cell in cells.items():
        direct = cells.get(key.replace(":replay", ""))
        if ":replay" in key and direct is not None:
            diffs += diff_cells(key, cell, direct, sys.stderr)
    return 1 if diffs else 0


def diff_cells(key: str, a: dict, b: dict, out=None) -> int:
    """Print one line per compared field that differs; returns how many."""
    diffs = 0
    for field in sorted((a.keys() | b.keys()) - {"info"}):
        va, vb = a.get(field), b.get(field)
        if va != vb:
            print(f"{key}: {field}: {va} != {vb}", file=out)
            diffs += 1
    return diffs


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["cells"]
    b = json.loads(Path(path_b).read_text())["cells"]
    diffs = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key}: only in {path_a if key in a else path_b}")
            diffs += 1
        else:
            diffs += diff_cells(key, a[key], b[key])
    return 1 if diffs else 0


def _csv(convert):
    return lambda text: tuple(convert(part) for part in text.split(",") if part)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--scales", type=_csv(str), default=SCALES)
    parser.add_argument("--workloads", type=_csv(str), default=WORKLOADS)
    parser.add_argument("--schemes", type=_csv(str), default=SCHEMES)
    parser.add_argument("--hosts", type=_csv(int), default=HOSTS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", help="import repro from this src/ directory "
                        "(default: this checkout's)")
    parser.add_argument("--out", help="write the matrix here (default: stdout)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return build(args)


if __name__ == "__main__":
    sys.exit(main())
