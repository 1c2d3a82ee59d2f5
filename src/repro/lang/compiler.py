"""Slang compiler driver: source -> AST -> typed AST -> assembly -> Program.

This file is pure: it compiles, and it names the toolchain.  The bytes of
every compiler/assembler module (:data:`_TOOLCHAIN_MODULES`, this file
included) make the *toolchain fingerprint* that is part of every job key
and every compiled-program key, so editing any stage of the toolchain
invalidates every cached program and stored result.  Caching lives outside
the fingerprint, in :mod:`repro.cache`: ``repro.lang.compile_source`` is its
memoised front end over :func:`compile_source` here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.lang.ast_nodes import Unit
from repro.lang.codegen import generate
from repro.lang.parser import parse
from repro.lang.sema import analyze

__all__ = [
    "compile_source",
    "compile_to_asm",
    "CompiledProgram",
    "toolchain_fingerprint",
]


@dataclass(frozen=True)
class CompiledProgram:
    """Compilation artefacts: the program image plus intermediate forms."""

    program: Program
    asm: str
    unit: Unit


_fingerprint: str | None = None

#: Modules whose bytes define the toolchain: any edit must invalidate caches.
_TOOLCHAIN_MODULES = (
    "lang/parser.py",
    "lang/sema.py",
    "lang/codegen.py",
    "lang/ast_nodes.py",
    "lang/compiler.py",
    "isa/assembler.py",
    "isa/opcodes.py",
    "isa/instruction.py",
    "isa/program.py",
)


def toolchain_fingerprint() -> str:
    """SHA-256 over the compiler/assembler sources (memoised per process)."""
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for rel in _TOOLCHAIN_MODULES:
            h.update(rel.encode())
            h.update((root / rel).read_bytes())
        _fingerprint = h.hexdigest()
    return _fingerprint


def compile_to_asm(source: str) -> str:
    """Compile Slang *source* and return the generated assembly text."""
    return generate(analyze(parse(source)))


def compile_source(source: str, *, name: str = "<slang>") -> CompiledProgram:
    """Compile Slang *source* into a loadable :class:`Program` image."""
    unit = analyze(parse(source))
    asm = generate(unit)
    return CompiledProgram(program=assemble(asm, name=name), asm=asm, unit=unit)
