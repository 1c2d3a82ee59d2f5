"""The on-disk cache: one root, one sealed-blob section type (DESIGN.md §11
*Cache directory layout*).

Everything the package keeps between runs lives under one root::

    <root>/programs/<key>.pkl     compiled Slang programs (compile_source)
    <root>/results/<key>.json     job records (repro.jobs.store.ResultStore)
    <root>/serve/                 the serve daemon's queue and endpoint

The root is ``REPRO_CACHE_DIR`` when it is set; the empty string disables
the store, the compile cache and the per-process program memo.  Otherwise
it is ``.repro_cache`` at the root of the checkout this package sits in
(``<checkout>/src/repro``), else ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) — never the working directory, so every command run
from anywhere in one checkout shares one cache.

**One integrity rule.**  A :class:`Section` holds one blob per key::

    <sha256 of payload> <toolchain fingerprint>\\n<payload>

``put`` publishes it atomically (same-directory tempfile + rename), and
``fetch`` checks the seal before decoding: a torn, edited or undecodable blob
is *corrupt*, answers a miss, and moves to ``<key>.corrupt`` so the evidence
survives while the next run rewrites the key.  A blob its section calls
*stale* (an older record layout) is a plain miss, left for ``gc``.  ``gc``
drops corrupt and stale blobs and every blob written under another toolchain
fingerprint; ``verify`` quarantines every corrupt one; ``clear`` empties the
section.  This module is outside the toolchain fingerprint on purpose: a
cache-policy edit here moves no job key.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
import threading
from array import array
from pathlib import Path

from repro._util import atomic_write_bytes, sha256_hex, source_digest
from repro.isa.program import program_digest

__all__ = ["Section", "cache_root", "compile_source", "program_image", "programs"]


def _checkout(package: Path) -> "Path | None":
    """The checkout a ``<checkout>/src/repro`` package sits in, if any."""
    src = package.parent
    if src.name == "src" and (src.parent / "pyproject.toml").is_file():
        return src.parent
    return None


_CHECKOUT = _checkout(Path(__file__).resolve().parent)


def cache_root() -> "Path | None":
    """The cache root, or ``None`` when ``REPRO_CACHE_DIR`` is empty."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw is not None:
        return Path(raw) if raw else None
    if _CHECKOUT is not None:
        return _CHECKOUT / ".repro_cache"
    return Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "repro"


def _toolchain() -> str:
    from repro.lang.compiler import toolchain_fingerprint  # cycle: repro.lang imports this module

    return toolchain_fingerprint()


class Section:
    """A directory of sealed blobs, ``<root>/<key><suffix>``.

    Subclasses name the *suffix* and the codec: :meth:`encode` renders a
    value as bytes; :meth:`decode` turns verified bytes back into the value,
    returns ``None`` for a stale blob and raises for an undecodable one.
    """

    suffix = ""

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes, key: str):
        raise NotImplementedError

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def keys(self) -> list[str]:
        """Every stored key (from file names; nothing is checked)."""
        if not self.root.is_dir():
            return []
        return sorted(p.name[: -len(self.suffix)] for p in self.root.glob(f"*{self.suffix}"))

    def put(self, key: str, value) -> bytes:
        """Seal and atomically publish *value* under *key*; returns the payload."""
        payload = self.encode(value)
        seal = hashlib.sha256(payload).hexdigest()
        atomic_write_bytes(self.path(key), f"{seal} {_toolchain()}\n".encode() + payload)
        return payload

    def read(self, key: str) -> tuple:
        """``(status, value, toolchain)`` of *key*, touching nothing.

        *status* is ``"ok"``, ``"absent"``, ``"stale"`` or ``"corrupt"``;
        *value* is set only when it is ``"ok"``.
        """
        try:
            blob = self.path(key).read_bytes()
        except FileNotFoundError:
            return "absent", None, None
        except OSError:
            return "corrupt", None, None
        head, _, payload = blob.partition(b"\n")
        seal, _, toolchain = head.decode("latin-1").partition(" ")
        if seal != hashlib.sha256(payload).hexdigest():
            return "corrupt", None, toolchain
        try:
            value = self.decode(payload, key)
        except Exception:  # undecodable under a valid seal is damage too
            return "corrupt", None, toolchain
        return ("stale" if value is None else "ok"), value, toolchain

    def fetch(self, key: str) -> tuple:
        """``(status, value)`` of *key*; a corrupt blob is quarantined."""
        status, value, _ = self.read(key)
        if status == "corrupt":
            self.quarantine(key)
        return status, value

    def quarantine(self, key: str) -> "Path | None":
        """Move *key*'s blob to ``<key>.corrupt``; ``None`` if it vanished
        first (two readers of one damaged blob move it once)."""
        dst = self.root / f"{key}.corrupt"
        try:
            os.replace(self.path(key), dst)
        except OSError:
            return None
        return dst

    def quarantined(self) -> list[Path]:
        return sorted(self.root.glob("*.corrupt")) if self.root.is_dir() else []

    def verify(self) -> dict:
        """Check every blob and quarantine the corrupt ones.

        Returns ``{"checked", "ok", "stale", "corrupt", "quarantined"}``:
        key lists, and the ``.corrupt`` files on disk after the scan.
        """
        report: dict = {"ok": [], "stale": [], "corrupt": []}
        for key in self.keys():
            status = self.fetch(key)[0]
            if status != "absent":
                report[status].append(key)
        report["checked"] = sum(len(keys) for keys in report.values())
        report["quarantined"] = [p.name for p in self.quarantined()]
        return report

    def gc(self, *, dry_run: bool = False) -> list[str]:
        """Drop every blob that is corrupt, stale or written under another
        toolchain fingerprint (no key derives to it); returns their keys."""
        current = _toolchain()
        dropped = []
        for key in self.keys():
            status, _, toolchain = self.read(key)
            if status == "absent" or (status == "ok" and toolchain == current):
                continue
            dropped.append(key)
            if not dry_run:
                self.path(key).unlink(missing_ok=True)
        return dropped

    def clear(self) -> tuple[int, int]:
        """Remove every blob and quarantined file; returns both counts."""
        blobs = [self.path(key) for key in self.keys()]
        quarantined = self.quarantined()
        for path in blobs + quarantined:
            path.unlink(missing_ok=True)
        return len(blobs), len(quarantined)


class Programs(Section):
    """Compiled programs: one pickled ``CompiledProgram`` per (toolchain,
    compile inputs, Python version, name, source)."""

    suffix = ".pkl"

    def encode(self, compiled) -> bytes:
        return pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, payload: bytes, key: str):
        from repro.lang.compiler import CompiledProgram  # cycle: repro.lang imports this module

        compiled = pickle.loads(payload)
        if not isinstance(compiled, CompiledProgram):
            raise TypeError(f"{type(compiled).__name__} is not a CompiledProgram")
        return compiled

    def gc(self, *, dry_run: bool = False) -> list[str]:
        dropped = super().gc(dry_run=dry_run)
        # Before sections, programs were ``<key>.pkl`` at the root itself.
        for path in sorted(self.root.parent.glob("[0-9a-f]" * 64 + ".pkl")):
            dropped.append(path.stem)
            if not dry_run:
                path.unlink(missing_ok=True)
        return dropped


def programs() -> "Programs | None":
    """The ``programs`` section of the cache root, or ``None`` when disabled."""
    root = cache_root()
    return Programs(root / "programs") if root is not None else None


#: The files every compile reads beyond the toolchain fingerprint's own
#: (``lang/compiler.py:_TOOLCHAIN_MODULES``): the lexer, the type and error
#: classes, the ``Sys`` numbers codegen emits and the shared helpers.  Both
#: sets are the import closure of ``repro.lang.compiler``
#: (tests/lang/test_compile_cache.py walks it), and both key a compiled
#: program; only the toolchain fingerprint is in a job key, which holds the
#: program digest instead.
_COMPILE_INPUTS = ("lang/lexer.py", "lang/types.py", "lang/errors.py", "sysapi/syscalls.py", "_util.py")


@functools.cache
def _compile_inputs() -> str:
    """SHA-256 over :data:`_COMPILE_INPUTS` (once per process)."""
    return source_digest(Path(__file__).resolve().parent, _COMPILE_INPUTS)


#: Programs kept per process; the oldest is dropped first.  A sweep or a
#: serve mix touches a handful of programs, far below this.
_MEMO_MAX = 16

_memo: dict = {}
_lock = threading.Lock()  # the daemon keys submissions on several threads


def compile_source(source: str, *, name: str = "<slang>"):
    """Compile Slang *source* to a ``CompiledProgram``, through the
    per-process memo and the ``programs`` section (DESIGN.md §6).

    Two calls that name the same ``programs`` entry return the identical
    object — one disk read, or one compile, per process — so the predecode
    tables a Program carries survive from one job to the next.  Sharing is
    safe: a Program is frozen and its derived tables are stateless between
    calls.  With the cache disabled every call compiles afresh.
    """
    from repro.lang import compiler  # cycle: repro.lang imports this module

    section = programs()
    if section is None:
        return compiler.compile_source(source, name=name)
    key = sha256_hex(
        compiler.toolchain_fingerprint(),
        _compile_inputs(),
        f"py{sys.version_info.major}.{sys.version_info.minor}",
        name,
        source,
    )
    path = os.path.abspath(section.path(key))
    with _lock:
        compiled = _memo.get(path)
        if compiled is None:
            compiled = section.fetch(key)[1]
            if compiled is None:
                compiled = compiler.compile_source(source, name=name)
                section.put(key, compiled)
            _memo[path] = compiled
            if len(_memo) > _MEMO_MAX:
                del _memo[next(iter(_memo))]
    return compiled


def program_image(program) -> tuple[str, bytes]:
    """``(digest, text)`` of *program*: its :func:`repro.isa.program.
    program_digest` and its text segment as encoded 8-byte words, ready for
    ``TargetMemory.write_bytes``.

    Both are computed once per Program object and memoised on it, as
    ``predecode_program`` memoises its tables, so every job that
    :func:`compile_source` hands the same Program keys and loads it without
    re-encoding the text.
    """
    image = getattr(program, "_image", None)
    if image is None:
        image = (program_digest(program), array("Q", program.encoded_text()).tobytes())
        object.__setattr__(program, "_image", image)
    return image
