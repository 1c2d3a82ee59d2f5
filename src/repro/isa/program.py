"""Program image: the output of the assembler / compiler toolchain.

A :class:`Program` is an immutable record of the text segment (decoded
instructions), the raw data segment, the symbol table and the entry point.
The standard memory layout mirrors a simple user-level process image::

    TEXT_BASE   0x0001_0000   instructions, one per 8-byte word
    DATA_BASE   0x0040_0000   .data, then the heap (grows up via sbrk)
    stacks      top of target memory, one region per workload thread

The loader (:mod:`repro.sysapi.loader`) materialises this image into a
:class:`repro.cpu.arch.TargetMemory`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction

__all__ = ["Program", "TEXT_BASE", "DATA_BASE", "program_digest"]

#: Base address of the text segment.
TEXT_BASE = 0x0001_0000
#: Base address of the data segment (and heap start, after .data).
DATA_BASE = 0x0040_0000


@dataclass(frozen=True)
class Program:
    """An assembled/compiled SPISA program image."""

    name: str
    text: tuple[Instruction, ...]
    data: bytes
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE
    exported: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.entry % INSTRUCTION_BYTES:
            raise ValueError(f"entry point {self.entry:#x} is not word aligned")
        if len(self.data) % 8:
            raise ValueError("data segment must be a multiple of 8 bytes")

    def __getstate__(self):
        # predecode_program memoises its closure tables on the instance
        # (``_predecoded``); closures don't pickle and are cheap to re-derive,
        # so checkpoints carry only the declared fields.
        state = dict(self.__dict__)
        state.pop("_predecoded", None)
        state.pop("_timing_blocks", None)
        return state

    @property
    def text_end(self) -> int:
        """First address past the text segment."""
        return TEXT_BASE + len(self.text) * INSTRUCTION_BYTES

    @property
    def data_end(self) -> int:
        """First address past the static data segment (heap start)."""
        return DATA_BASE + len(self.data)

    @property
    def size_insns(self) -> int:
        return len(self.text)

    def instruction_at(self, addr: int) -> Instruction:
        """Return the instruction at text address *addr*."""
        index, rem = divmod(addr - TEXT_BASE, INSTRUCTION_BYTES)
        if rem or not 0 <= index < len(self.text):
            raise IndexError(f"{addr:#x} is not a valid text address of {self.name}")
        return self.text[index]

    def address_of(self, symbol: str) -> int:
        """Resolve *symbol* from the symbol table."""
        try:
            return self.symbols[symbol]
        except KeyError:
            raise KeyError(f"no symbol {symbol!r} in program {self.name}") from None

    def encoded_text(self) -> list[int]:
        """Text segment as encoded 64-bit words (for memory-resident images)."""
        return [insn.encode() for insn in self.text]

    def listing(self) -> str:
        """Human-readable disassembly listing with addresses and symbols."""
        from repro.isa.disassembler import format_instruction

        by_addr: dict[int, list[str]] = {}
        for name, addr in self.symbols.items():
            by_addr.setdefault(addr, []).append(name)
        lines: list[str] = [f"# program {self.name}: {len(self.text)} insns, {len(self.data)} data bytes"]
        for i, insn in enumerate(self.text):
            addr = TEXT_BASE + i * INSTRUCTION_BYTES
            for label in sorted(by_addr.get(addr, ())):
                lines.append(f"{label}:")
            lines.append(f"  {addr:#010x}  {format_instruction(insn)}")
        return "\n".join(lines)


def program_digest(program: Program) -> str:
    """Content identity of a program image (text + data + entry).

    The validity key for captures: a replay against a program whose digest
    differs from the recorded one is refused outright — the recorded
    streams describe a different execution.
    """
    h = hashlib.sha256()
    h.update(program.name.encode())
    h.update(str(program.entry).encode())
    for word in program.encoded_text():
        h.update(word.to_bytes(8, "little"))
    h.update(program.data)
    return h.hexdigest()
