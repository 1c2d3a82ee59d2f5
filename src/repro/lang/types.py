"""Slang type system.

Three scalar kinds (``int`` = signed 64-bit, ``float`` = IEEE double,
``void``), plus first-class pointers and fixed-size arrays.  Every scalar
occupies one 8-byte target word, so ``sizeof`` is uniform and pointer
arithmetic scales by 8.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Type", "INT", "FLOAT", "VOID", "Ptr", "Array", "WORD_BYTES"]

WORD_BYTES = 8


class Type:
    """Base class; concrete types are the singletons and dataclasses below."""

    def __str__(self) -> str:  # pragma: no cover
        return self.__class__.__name__

    @property
    def is_numeric(self) -> bool:
        return isinstance(self, (_Int, _Float))

    @property
    def is_float(self) -> bool:
        return isinstance(self, _Float)

    @property
    def is_int(self) -> bool:
        return isinstance(self, _Int)

    @property
    def is_void(self) -> bool:
        return isinstance(self, _Void)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, Ptr)

    @property
    def is_array(self) -> bool:
        return isinstance(self, Array)

    def sizeof(self) -> int:
        """Size in bytes when stored in memory."""
        if isinstance(self, Array):
            return self.length * self.element.sizeof()
        if isinstance(self, _Void):
            raise ValueError("void has no size")
        return WORD_BYTES

    def decay(self) -> "Type":
        """Array-to-pointer decay (C semantics)."""
        if isinstance(self, Array):
            return Ptr(self.element)
        return self


class _Int(Type):
    def __str__(self) -> str:
        return "int"


class _Float(Type):
    def __str__(self) -> str:
        return "float"


class _Void(Type):
    def __str__(self) -> str:
        return "void"


INT = _Int()
FLOAT = _Float()
VOID = _Void()


@dataclass(frozen=True)
class Ptr(Type):
    """Pointer to *base* (``int*``, ``float*``, ``int**`` ...)."""

    base: Type

    def __str__(self) -> str:
        return f"{self.base}*"


@dataclass(frozen=True)
class Array(Type):
    """Fixed-length array; decays to ``Ptr(element)`` in expressions."""

    element: Type
    length: int

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


def same(a: Type, b: Type) -> bool:
    """Structural type equality."""
    if isinstance(a, Ptr) and isinstance(b, Ptr):
        return same(a.base, b.base)
    if isinstance(a, Array) and isinstance(b, Array):
        return a.length == b.length and same(a.element, b.element)
    return type(a) is type(b)
