"""SPLASH-2-style benchmark tests: oracles, correctness under slack."""

import pytest

from repro.workloads.base import LCG_ADD, LCG_MOD, LCG_MULT, lcg_stream
from repro.workloads.registry import ALL_BENCHMARKS, BENCHMARKS, SCALES, make_workload
from tests import lattice
from tests.lattice import Cell


class TestLCG:
    def test_stream_is_deterministic(self):
        assert lcg_stream(42, 5) == lcg_stream(42, 5)

    def test_stream_matches_recurrence(self):
        x = 42
        expected = []
        for _ in range(4):
            x = (x * LCG_MULT + LCG_ADD) % LCG_MOD
            expected.append(x / LCG_MOD)
        assert lcg_stream(42, 4) == expected

    def test_values_in_unit_interval(self):
        assert all(0.0 <= v < 1.0 for v in lcg_stream(7, 100))

    def test_slang_lcg_matches_python(self):
        """The in-target generator must produce the identical stream."""
        from repro.cache import compile_source
        from repro.cpu.interp import run_functional
        from repro.workloads.base import SLANG_LCG

        src = SLANG_LCG + """
        int main() {
            lcg_state = 42;
            for (int i = 0; i < 6; i = i + 1) print_float(lcg_next());
            return 0;
        }
        """
        out = run_functional(compile_source(src).program).float_output
        assert out == lcg_stream(42, 6)


class TestRegistry:
    def test_all_benchmarks_registered(self):
        assert set(BENCHMARKS) == {"barnes", "fft", "lu", "water"}
        assert set(ALL_BENCHMARKS) == set(BENCHMARKS) | {"radix", "ocean"}

    def test_scales_cover_all_benchmarks(self):
        for scale, table in SCALES.items():
            assert set(table) == set(ALL_BENCHMARKS), scale

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            make_workload("radiosity")
        with pytest.raises(KeyError):
            make_workload("fft", scale="gigantic")

    def test_overrides_apply(self):
        w = make_workload("fft", scale="tiny", n=32)
        assert w.params["n"] == 32


class TestVerification:
    def test_mismatch_reporting(self):
        w = make_workload("lu", scale="tiny")
        assert w.verify(list(w.expected_output))
        bad = list(w.expected_output)
        bad[0] += 1.0
        problems = w.mismatches(bad)
        assert problems and "lu[0]" in problems[0]
        assert w.mismatches([1.0]) != []

    def test_tolerance_is_relative(self):
        w = make_workload("fft", scale="tiny")
        nudged = [v * (1 + 1e-9) for v in w.expected_output]
        assert w.verify(nudged)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestBenchmarkExecution:
    def test_correct_under_cc(self, name):
        lattice.run(Cell(name, scheme="cc"))  # checks the output oracle

    def test_correct_under_bounded_slack(self, name):
        lattice.run(Cell(name, scheme="s9"))  # checks the output oracle

    def test_correct_under_unbounded_slack(self, name):
        """Paper §3.2.3: 'the benchmarks we have tested still execute
        correctly' even with unbounded slack."""
        lattice.run(Cell(name, scheme="su"))  # checks the output oracle

    def test_uses_all_threads(self, name):
        w = make_workload(name, scale="tiny")
        r = lattice.run(Cell(name))
        active = [c for c in r.cores if c["committed"] > 0]
        assert len(active) == w.params["nthreads"]


def test_benchmarks_generate_coherence_traffic():
    r = lattice.run(Cell("water"))
    assert r.requests > 0
    assert sum(c["l1_misses"] for c in r.cores) > 0
