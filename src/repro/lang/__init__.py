"""Slang: the reproduction's C-like workload language and compiler.

Replaces the paper's GCC/PISA toolchain (DESIGN.md §2).  Workloads are
written in Slang against the paper's Table 1 Pthread-style API (``init_lock``
/ ``lock`` / ``unlock``, ``init_barrier`` / ``barrier``, ``init_sema`` /
``sema_wait`` / ``sema_signal``) plus ``spawn``/``join`` and math/IO
builtins, and compile to SPISA program images.

``repro.lang.compile_source`` (the cached compile, defined in
:mod:`repro.cache`) is the package's one export, for outside callers.
"""

from repro.cache import compile_source

__all__ = ["compile_source"]
