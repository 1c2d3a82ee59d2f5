"""Branch predictor tests."""

import pytest

from repro.cpu.branch import GsharePredictor


class TestGshare:
    def test_learns_history_correlated_pattern(self):
        """Alternating T/N/T/N defeats a per-PC counter but not gshare."""
        p = GsharePredictor(entries=256, history_bits=4)
        pc = 0x3000
        pattern = [True, False] * 200
        correct = 0
        for taken in pattern:
            pred = p.predict(pc)
            correct += pred == taken
            p.update(pc, taken, pred)
        assert correct / len(pattern) > 0.8

    def test_history_advances(self):
        p = GsharePredictor(entries=64, history_bits=4)
        before = p.history
        p.update(0x3000, taken=True, predicted=False)
        assert p.history != before or before == 0b1111

    def test_counters_saturate(self):
        """With no history bits the PC alone picks the counter: one
        not-taken does not flip a saturated one, and the stats count it."""
        p = GsharePredictor(entries=64, history_bits=0)
        pc = 0x2000
        for _ in range(100):
            p.update(pc, taken=True, predicted=True)
        p.update(pc, taken=False, predicted=p.predict(pc))
        assert p.predict(pc) is True
        assert p.stats.lookups == 2 and p.stats.correct == 100

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GsharePredictor(entries=100)
