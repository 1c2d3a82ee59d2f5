"""TargetMemory: a demand-zero image whose pickle carries only non-zero pages."""

import os
import pickle

import pytest

from repro.cpu.arch import TargetFault, TargetMemory

MIB16 = 16 * 1024 * 1024


def test_fresh_memory_reads_zero_at_both_ends():
    mem = TargetMemory(MIB16)
    assert mem.load_word(0) == 0
    assert mem.load_word(MIB16 - 8) == 0
    assert mem.load_float(MIB16 - 8) == 0.0


def test_int_and_float_stores_alias_the_same_bytes():
    mem = TargetMemory(4096)
    mem.store_float(64, 1.0)
    assert mem.load_word(64) == 0x3FF0_0000_0000_0000
    mem.store_word(72, -0x4000_0000_0000_0000)  # 0xC000...: the bits of -2.0
    assert mem.load_float(72) == -2.0


@pytest.mark.parametrize("size", [8, 4096, MIB16])
def test_pickle_round_trips_with_the_last_page_written(size):
    mem = TargetMemory(size)
    mem.store_word(size - 8, -7)
    if size > 8:
        mem.store_float(size // 2, 2.5)
    back = pickle.loads(pickle.dumps(mem))
    assert (back.size, back.nwords) == (size, size // 8)
    assert back.load_word(size - 8) == -7
    assert bytes(back._map) == bytes(mem._map)


def test_fresh_memory_pickles_small():
    assert len(pickle.dumps(TargetMemory(MIB16))) < 64 * 1024


def test_bulk_write_past_the_end_faults():
    mem = TargetMemory(64)
    with pytest.raises(TargetFault, match="overflows"):
        mem.write_bytes(56, bytes(16))


def test_a_forked_child_writes_its_own_copy():
    """The image is a private mapping: a fork-started worker's stores stay
    in the worker."""
    mem = TargetMemory(MIB16)
    mem.store_word(4096, 11)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            mem.store_word(4096, 99)
            mem.store_word(MIB16 - 8, 99)
            os.write(write_end, str(mem.load_word(4096)).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        seen_by_child = pipe.read()
    os.waitpid(pid, 0)
    assert seen_by_child == b"99"
    assert mem.load_word(4096) == 11
    assert mem.load_word(MIB16 - 8) == 0
