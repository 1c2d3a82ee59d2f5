"""Architectural state: target memory and per-hardware-context registers.

``TargetMemory`` is the single *functional* memory image shared by every
simulated core.  Timing (caches, coherence, interconnect) is modeled
elsewhere; values live here and are read/written at the simulation time the
owning core executes the access.  That "isochrone" semantics is exactly what
makes slack schemes perturb workload behaviour (paper §3.2.3): two cores with
different local times touch this one image in *simulation-time* order.

The backing store is one anonymous private mapping with zero-copy ``int64``
and ``float64`` views, so integer and float accesses alias the same bytes (as
on real hardware) without per-access ``struct`` packing.  The mapping is
demand-zero: a page costs host memory only once a core touches it, and a
pickle carries only the pages that are not all zero.
"""

from __future__ import annotations

import mmap

from repro._util import is_pow2, to_signed64

__all__ = ["TargetMemory", "ArchState", "TargetFault", "NUM_XREGS", "NUM_FREGS"]

NUM_XREGS = 32
NUM_FREGS = 32

#: ABI register indices used throughout the system layer.
REG_ZERO, REG_RA, REG_SP, REG_GP, REG_TP = 0, 1, 2, 3, 4
REG_A0 = 10
REG_A7 = 17
FREG_FA0 = 10


class TargetFault(RuntimeError):
    """A target-level memory fault (misaligned or out-of-bounds access)."""


class TargetMemory:
    """Byte-addressed functional memory with aligned 8-byte word accesses."""

    __slots__ = ("size", "nwords", "_map", "_words", "_floats")

    #: Pickling granularity: only pages with a non-zero byte travel.
    PAGE_BYTES = 4096

    def __init__(self, size_bytes: int = 16 * 1024 * 1024) -> None:
        if size_bytes % 8 or not is_pow2(size_bytes):
            raise ValueError(f"memory size {size_bytes} must be a power-of-two multiple of 8")
        self._attach(size_bytes)

    def _attach(self, size_bytes: int) -> None:
        self.size = size_bytes
        self.nwords = size_bytes // 8
        # MAP_PRIVATE: a fork-started worker gets a copy-on-write image, never
        # a view of its parent's (the anonymous default is MAP_SHARED).
        self._map = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        view = memoryview(self._map)
        self._words = view.cast("q")
        self._floats = view.cast("d")

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        # The views cannot be pickled; ship the non-zero pages as
        # (offset, bytes) pairs and let __setstate__ map a fresh image.
        page, image = self.PAGE_BYTES, self._map
        zero = bytes(min(page, self.size))
        pages = []
        for offset in range(0, self.size, page):
            chunk = image[offset : offset + page]
            if chunk != zero:
                pages.append((offset, chunk))
        return (self.size, pages)

    def __setstate__(self, state) -> None:
        size, pages = state
        self._attach(size)
        for offset, chunk in pages:
            self._map[offset : offset + len(chunk)] = chunk

    def _index(self, addr: int) -> int:
        if addr & 7:
            raise TargetFault(f"misaligned word access at {addr:#x}")
        index = addr >> 3
        if not 0 <= index < self.nwords:
            raise TargetFault(f"out-of-bounds access at {addr:#x} (size {self.size:#x})")
        return index

    # ------------------------------------------------------------ integer
    def load_word(self, addr: int) -> int:
        """Load a signed 64-bit word."""
        return self._words[self._index(addr)]

    def store_word(self, addr: int, value: int) -> None:
        """Store a signed 64-bit word (wraps modulo 2**64)."""
        self._words[self._index(addr)] = to_signed64(value)

    # -------------------------------------------------------------- float
    def load_float(self, addr: int) -> float:
        """Load an IEEE-754 double from the same bytes as the word store."""
        return self._floats[self._index(addr)]

    def store_float(self, addr: int, value: float) -> None:
        self._floats[self._index(addr)] = value

    # --------------------------------------------------------------- bulk
    def write_bytes(self, addr: int, blob: bytes) -> None:
        """Bulk store of raw bytes (8-byte aligned, used by the loader)."""
        if len(blob) % 8:
            raise TargetFault("write_bytes requires a multiple of 8 bytes")
        base = self._index(addr) * 8
        if base + len(blob) > self.size:
            raise TargetFault(f"bulk write of {len(blob)} bytes at {addr:#x} overflows memory")
        self._map[base : base + len(blob)] = blob


class ArchState:
    """One hardware thread context: integer/float register files and a PC.

    ``x0`` is hardwired to zero: writers must go through :meth:`set_x`.
    """

    __slots__ = ("x", "f", "pc", "halted", "context_id")

    def __init__(self, context_id: int = 0, pc: int = 0) -> None:
        self.x: list[int] = [0] * NUM_XREGS
        self.f: list[float] = [0.0] * NUM_FREGS
        self.pc = pc
        self.halted = False
        self.context_id = context_id

    def set_x(self, reg: int, value: int) -> None:
        """Write integer register *reg*, preserving the x0 == 0 invariant."""
        if reg:
            self.x[reg] = to_signed64(value)

    def copy(self) -> "ArchState":
        """Deep copy (used by checkpointing tests)."""
        dup = ArchState(self.context_id, self.pc)
        dup.x = list(self.x)
        dup.f = list(self.f)
        dup.halted = self.halted
        return dup

    def digest(self) -> str:
        """Stable fingerprint of the full architectural state.

        Floats are rendered with ``float.hex`` so the digest is exact (no
        repr rounding); used by the dispatch-differential tests to assert
        bit-identical trajectories between execution layers.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(repr(self.x).encode())
        h.update(repr([v.hex() for v in self.f]).encode())
        h.update(f"pc={self.pc} halted={int(self.halted)}".encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArchState ctx={self.context_id} pc={self.pc:#x} halted={self.halted}>"
