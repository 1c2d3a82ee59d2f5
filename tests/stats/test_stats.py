"""Metrics and table-rendering tests."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.experiments.common import error, speedup
from repro.stats import Table, harmonic_mean


class TestMetrics:
    def test_harmonic_mean_known_value(self):
        assert harmonic_mean([1, 2, 4]) == pytest.approx(12 / 7)

    def test_harmonic_mean_of_constant(self):
        assert harmonic_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_harmonic_mean_rejects_bad_input(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, -2.0])

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=20))
    def test_harmonic_le_geometric_le_max(self, values):
        h = harmonic_mean(values)
        g = math.exp(sum(math.log(v) for v in values) / len(values))
        assert h <= g * (1 + 1e-9)
        assert min(values) - 1e-9 <= h <= max(values) + 1e-9

    def test_relative_error(self):
        """Table 3's metric, where the experiments compute it."""
        gold = {"execution_cycles": 100}
        assert error(gold, {"execution_cycles": 110}) == pytest.approx(0.10)
        assert error(gold, {"execution_cycles": 90}) == pytest.approx(0.10)
        assert speedup({"host_time": 30.0}, {"host_time": 12.0}) == pytest.approx(2.5)


class TestMetricsEdgeCases:
    """Boundary behaviour pinned explicitly."""

    def test_single_element_means_are_identity(self):
        assert harmonic_mean([7.0]) == pytest.approx(7.0)

    def test_relative_error_exact_match_is_zero(self):
        gold = {"execution_cycles": 5}
        assert error(gold, dict(gold)) == 0.0


class TestTable:
    def test_render_contains_cells(self):
        t = Table("Demo", ["a", "b"])
        t.add_row("x", 1.5)
        text = t.render()
        assert "Demo" in text and "x" in text and "1.50" in text

    def test_row_width_checked(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_alignment_is_consistent(self):
        t = Table("T", ["col", "value"])
        t.add_row("short", 1)
        t.add_row("a-much-longer-cell", 22)
        lines = t.render().splitlines()
        header = next(line for line in lines if "col" in line)
        rows = [line for line in lines if "short" in line or "longer" in line]
        assert len({len(r) for r in rows + [header]}) == 1
