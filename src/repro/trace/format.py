"""On-disk trace format: compact, struct-packed, digest-sealed.

A trace file is the scheme-invariant record of one workload execution at
the timing-core → memory seam: per core, the committed-operation stream
(compute runs, memory accesses with their effective addresses, resolved
syscalls) in commit order.  Nothing scheme- or pacing-dependent is stored
— hits/misses, coherence traffic, synchronization outcomes and violations
are re-enacted live at replay time under whatever scheme/memory config the
replay run configures (DESIGN.md §11).

Layout::

    magic "SLTR" | u16 version | u32 header_len | header JSON (utf-8)
    per core:  u32 core_id | u64 op_count | packed ops
    footer:    32-byte sha256 over every preceding byte

Each op packs as ``u8 opcode | u8 argc | argc × 8-byte args`` — args are
little-endian signed 64-bit integers except ``OP_PRINT``'s float payload,
which stores its IEEE-754 bits.  The footer seals the file: a flipped bit
anywhere is a hard :class:`TraceError`, never silent garbage.

The header's ``"flavor"`` is always ``"program"``: an ISA workload captured
from :class:`InOrderCore` commit hooks and replayed by
:class:`repro.trace.replay.ReplayCore`.  The engine refuses any other value.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

from repro._util import atomic_write_bytes
from repro.isa.program import program_digest  # noqa: F401  (re-exported)

__all__ = [
    "TraceError", "Trace", "TRACE_VERSION",
    "OP_RUN", "OP_MULTI", "OP_MEM", "OP_SYS", "OP_PRINT", "OP_SPAWN",
    "OP_JOIN", "OP_EXIT", "OP_SYNC", "OP_HALT",
    "ACC_LOAD", "ACC_STORE", "ACC_AMO",
    "program_digest", "write_trace", "read_trace", "trace_info",
]

MAGIC = b"SLTR"
TRACE_VERSION = 1

# ------------------------------------------------------------- op vocabulary
# The ISA committed-op stream.
OP_RUN = 1     # (OP_RUN, n)                n coalesced latency-1 register commits
OP_MULTI = 2   # (OP_MULTI, lat)            one register commit, lat-1 busy cycles
OP_MEM = 3     # (OP_MEM, acc, lat, addr)   L1 access; acc below, lat = unit latency
OP_SYS = 4     # (OP_SYS, num)              resolved cost-only syscall (sbrk/clock/...)
OP_PRINT = 5   # (OP_PRINT, kind, value)    kind 0 int / 1 float / 2 char-codepoint
OP_SPAWN = 6   # (OP_SPAWN, child_core, tid)
OP_JOIN = 7    # (OP_JOIN, tid)
OP_EXIT = 8    # (OP_EXIT,)
OP_SYNC = 9    # (OP_SYNC, num, addr, aux)  Table-1 sync call, resolved arguments
OP_HALT = 10   # (OP_HALT,)                 halt instruction

ACC_LOAD = 0
ACC_STORE = 1
ACC_AMO = 2

_OP_NAMES = {
    OP_RUN: "run", OP_MULTI: "multi", OP_MEM: "mem", OP_SYS: "sys",
    OP_PRINT: "print", OP_SPAWN: "spawn", OP_JOIN: "join", OP_EXIT: "exit",
    OP_SYNC: "sync", OP_HALT: "halt",
}

_PACK_I64 = struct.Struct("<q")
_PACK_F64 = struct.Struct("<d")
_PACK_HEAD = struct.Struct("<BB")
_PACK_CORE = struct.Struct("<IQ")
_PACK_FILE = struct.Struct("<4sHI")


class TraceError(RuntimeError):
    """Corrupt, truncated, or mismatched trace file."""


@dataclass
class Trace:
    """A parsed trace: the header dict plus per-core op streams."""

    header: dict
    core_ops: list[list[tuple]] = field(default_factory=list)
    sha256: str = ""

    @property
    def flavor(self) -> "str | None":
        return self.header.get("flavor")

    @property
    def num_cores(self) -> int:
        return self.header["num_cores"]

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ops in self.core_ops:
            for op in ops:
                name = _OP_NAMES[op[0]]
                counts[name] = counts.get(name, 0) + 1
        return counts


# ------------------------------------------------------------------ writing
def _encode_ops(ops: list[tuple]) -> bytes:
    parts = []
    head = _PACK_HEAD.pack
    i64 = _PACK_I64.pack
    f64 = _PACK_F64.pack
    for op in ops:
        code = op[0]
        argc = len(op) - 1
        parts.append(head(code, argc))
        if code == OP_PRINT and op[1] == 1:
            # Float payloads travel as raw IEEE-754 bits (exact round trip).
            parts.append(i64(op[1]))
            parts.append(f64(op[2]))
        else:
            for arg in op[1:]:
                parts.append(i64(int(arg)))
    return b"".join(parts)


def write_trace(path: str, header: dict, core_ops: list[list[tuple]]) -> str:
    """Serialize and atomically write a trace; returns its sha256 hex."""
    header = dict(header)
    header["version"] = TRACE_VERSION
    header["num_cores"] = len(core_ops)
    counts: dict[str, int] = {}
    events = 0
    for ops in core_ops:
        for op in ops:
            name = _OP_NAMES[op[0]]
            counts[name] = counts.get(name, 0) + 1
            if op[0] == OP_MEM:
                events += 1
    header["op_counts"] = dict(sorted(counts.items()))
    header["memory_events"] = events
    hjson = json.dumps(header, sort_keys=True).encode()
    parts = [_PACK_FILE.pack(MAGIC, TRACE_VERSION, len(hjson)), hjson]
    for core_id, ops in enumerate(core_ops):
        parts.append(_PACK_CORE.pack(core_id, len(ops)))
        parts.append(_encode_ops(ops))
    body = b"".join(parts)
    digest = hashlib.sha256(body).digest()
    atomic_write_bytes(path, body + digest)
    return digest.hex()


# ------------------------------------------------------------------ reading
def _decode_ops(buf: memoryview, offset: int, count: int) -> tuple[list[tuple], int]:
    ops: list[tuple] = []
    head = _PACK_HEAD.unpack_from
    i64 = _PACK_I64.unpack_from
    f64 = _PACK_F64.unpack_from
    for _ in range(count):
        code, argc = head(buf, offset)
        offset += 2
        if code == OP_PRINT and argc == 2 and i64(buf, offset)[0] == 1:
            value = f64(buf, offset + 8)[0]
            ops.append((OP_PRINT, 1, value))
            offset += 16
            continue
        args = tuple(i64(buf, offset + 8 * k)[0] for k in range(argc))
        offset += 8 * argc
        ops.append((code, *args))
    return ops, offset


def read_trace(path: str) -> Trace:
    """Parse and verify a trace file (sha256 footer, magic, version)."""
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    if len(raw) < _PACK_FILE.size + 32:
        raise TraceError(f"trace {path!r} is truncated ({len(raw)} bytes)")
    body, footer = raw[:-32], raw[-32:]
    digest = hashlib.sha256(body).digest()
    if footer != digest:
        raise TraceError(
            f"trace {path!r} failed its integrity check "
            f"(recorded {footer.hex()[:16]}…, computed {digest.hex()[:16]}…)"
        )
    magic, version, hlen = _PACK_FILE.unpack_from(body, 0)
    if magic != MAGIC:
        raise TraceError(f"{path!r} is not a trace file (bad magic {magic!r})")
    if version != TRACE_VERSION:
        raise TraceError(
            f"trace {path!r} is format v{version}; this build reads v{TRACE_VERSION}"
        )
    offset = _PACK_FILE.size
    header = json.loads(body[offset:offset + hlen].decode())
    offset += hlen
    view = memoryview(body)
    core_ops: list[list[tuple]] = []
    for expect in range(header["num_cores"]):
        core_id, count = _PACK_CORE.unpack_from(view, offset)
        offset += _PACK_CORE.size
        if core_id != expect:
            raise TraceError(f"trace {path!r}: core section {core_id} out of order")
        ops, offset = _decode_ops(view, offset, count)
        core_ops.append(ops)
    if offset != len(body):
        raise TraceError(f"trace {path!r}: {len(body) - offset} trailing bytes")
    return Trace(header=header, core_ops=core_ops, sha256=digest.hex())


def trace_info(path: str) -> str:
    """Human-readable summary for the ``trace info`` CLI."""
    trace = read_trace(path)
    hdr = trace.header
    lines = [
        f"trace: {path}",
        f"  flavor:          {hdr['flavor']}",
        f"  format version:  {hdr['version']}",
        f"  cores:           {hdr['num_cores']}",
        f"  program digest:  {hdr.get('program_digest') or '-'}",
    ]
    source = hdr.get("source")
    if source:
        desc = ", ".join(f"{k}={v}" for k, v in sorted(source.items()))
        lines.append(f"  source:          {desc}")
    l1 = hdr.get("l1")
    if l1:
        lines.append(
            f"  captured L1:     {l1['size_bytes']}B / {l1['assoc']}-way "
            f"/ {l1['block_bytes']}B blocks / hit {l1['hit_latency']}c"
        )
    total = sum(hdr.get("op_counts", {}).values())
    lines.append(f"  memory events:   {hdr.get('memory_events', 0)}")
    lines.append(f"  ops:             {total}")
    for name, count in sorted(hdr.get("op_counts", {}).items()):
        lines.append(f"    {name:<12s} {count}")
    lines.append(f"  sha256:          {trace.sha256}")
    return "\n".join(lines)
