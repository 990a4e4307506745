"""Small numeric helpers: compensated summation."""

from __future__ import annotations


class KahanSum:
    """Compensated accumulator for long sums of small probabilities."""

    __slots__ = ("total", "_c")

    def __init__(self, total: float = 0.0):
        self.total = total
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t

    def __float__(self) -> float:
        return self.total
