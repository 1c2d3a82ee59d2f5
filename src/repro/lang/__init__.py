"""Slang: the reproduction's C-like workload language and compiler.

Replaces the paper's GCC/PISA toolchain (DESIGN.md §2).  Workloads are
written in Slang against the paper's Table 1 Pthread-style API (``init_lock``
/ ``lock`` / ``unlock``, ``init_barrier`` / ``barrier``, ``init_sema`` /
``sema_wait`` / ``sema_signal``) plus ``spawn``/``join`` and math/IO
builtins, and compile to SPISA program images.
"""

from repro.lang.compiler import CompiledProgram, compile_to_asm
from repro.lang.errors import CodegenError, LexError, ParseError, SlangError, TypeError_
from repro.lang.memo import compile_source
from repro.lang.parser import parse
from repro.lang.sema import BUILTINS, analyze

__all__ = [
    "CompiledProgram",
    "compile_source",
    "compile_to_asm",
    "CodegenError",
    "LexError",
    "ParseError",
    "SlangError",
    "TypeError_",
    "parse",
    "BUILTINS",
    "analyze",
]
