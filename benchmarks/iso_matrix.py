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

Workload tokens are ``tests/lattice.py``'s (``Cell.of``): the registered
names, the trace workloads ``TRACES`` (``sharing``, ``sharing:think``,
``pingpong``), ``NAME:ooo`` / ``NAME:replay`` (the out-of-order core model; a
replay of an ``su`` capture) and ``NAME:func`` — the functional interpreter on
the ``nthreads=1`` program, one cell per scale (no scheme, no host):
instruction count, exit code, output digest and the final
``ArchState.digest()``.  Cells are built by the lattice's ``build`` and
recorded as its ``fingerprint``, the fields ``assert_same_run`` compares.
Seeds are ``derive_seed(--seed, workload, scheme, hosts)``, the sweep's and
the repo benchmark's rule (``--seed`` also seeds the trace generators and the
capture).  The default schemes are the lattice's, one per ``parse_scheme``
family (quote a ``--schemes`` list that holds ``s9*``: it is a shell glob).
The default workloads cover every core model: in-order, the three trace
workloads, replay (``fft:replay``: barriers only; ``water:replay``: locks,
barriers and joins), out-of-order (``fft:ooo``, ``water:ooo``, the repo
benchmark's two ``ooo`` jobs) and the interpreter on every registered
workload (each one's single-thread lock and barrier path through the system
emulation).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCALES = ("tiny", "small")
WORKLOADS = (
    "barnes", "fft", "lu", "water", "sharing", "sharing:think", "pingpong",
    "fft:replay", "water:replay", "fft:ooo", "water:ooo",
    "barnes:func", "fft:func", "lu:func", "ocean:func", "radix:func", "water:func",
)
HOSTS = (1, 2, 8)


def build(args) -> int:
    # The chosen checkout's ``repro`` first, then this one's ``tests``.
    sys.path[:0] = [str(Path(args.src or ROOT / "src").resolve()), str(ROOT)]
    from repro.experiments.parallel import derive_seed
    from tests import lattice

    cells = {}
    for scale in args.scales:
        for token in args.workloads:
            name, _, variant = token.partition(":")
            if variant == "func":
                key = f"{scale}/{token}"
                cells[key] = lattice.functional(name, scale)
                print(key, cells[key]["instructions"], file=sys.stderr, flush=True)
                continue
            for scheme in args.schemes or lattice.SCHEMES:
                for hosts in args.hosts:
                    key = f"{scale}/{token}/{scheme}/h{hosts}"
                    cell = lattice.Cell.of(token)
                    engine = lattice.build(
                        cell.workload, scheme, hosts, model=cell.model, scale=scale,
                        seed=derive_seed(args.seed, name, scheme, hosts), trace_seed=args.seed,
                    )
                    result = engine.run()
                    cells[key] = lattice.fingerprint(result)
                    # Not compared (a checkout without the barrier superstep
                    # has no such counter): how many barriers ran fused.
                    fused = getattr(engine, "fused_barriers", None)
                    if fused is not None:
                        cells[key]["info"] = {"fused_barriers": fused, "barriers": result.barriers}
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
    parser.add_argument("--schemes", type=_csv(str))
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
