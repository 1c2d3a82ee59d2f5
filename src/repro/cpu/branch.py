"""The out-of-order core's branch predictor: gshare (global history XOR PC
indexes a table of 2-bit saturating counters).  It sets fetch redirect
timing; a misprediction costs a configurable flush penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import is_pow2

__all__ = ["GsharePredictor", "PredictorStats"]


@dataclass
class PredictorStats:
    lookups: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.lookups if self.lookups else 0.0


class GsharePredictor:
    """Global-history predictor: PC XOR history indexes the counter table."""

    def __init__(self, entries: int = 4096, history_bits: int = 12) -> None:
        if not is_pow2(entries):
            raise ValueError("predictor table size must be a power of two")
        self.mask = entries - 1
        self.history_mask = (1 << history_bits) - 1
        self.table = [1] * entries
        self.history = 0
        self.stats = PredictorStats()

    def _index(self, pc: int) -> int:
        return ((pc >> 3) ^ self.history) & self.mask

    def predict(self, pc: int, target_offset: int = 0) -> bool:
        self.stats.lookups += 1
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        if taken == predicted:
            self.stats.correct += 1
        index = self._index(pc)
        counter = self.table[index]
        self.table[index] = min(3, counter + 1) if taken else max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask

