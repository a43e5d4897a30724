"""Finite metric spaces over exact rationals and the max-combination of two metrics.

Distances are ``fractions.Fraction`` values so the metric axioms can be
checked exactly, never within a floating tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import MalformedSpace, NotABijection, NotAMetric, SizeMismatch

Rational = Fraction | int


class FiniteMetric:
    """An n-point metric given by its full distance matrix.

    Construction validates all axioms exhaustively: zero diagonal, symmetry,
    strict positivity off the diagonal, and the triangle inequality over
    every ordered triple.
    """

    __slots__ = ("n", "dist")

    def __init__(self, dist: Sequence[Sequence[Rational]]):
        n = len(dist)
        if n < 1:
            raise MalformedSpace("a metric space needs at least one point")
        rows = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in dist
        )
        if any(len(row) != n for row in rows):
            raise SizeMismatch("distance matrix must be square")
        # The axioms are checked over integers: every distance scaled by the
        # lcm of the denominators, which keeps order, equality and sums exact.
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        d = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
        for i in range(n):
            if d[i][i] != 0:
                raise NotAMetric("identity", (i, i))
            for j in range(i + 1, n):
                if d[i][j] != d[j][i]:
                    raise NotAMetric("symmetry", (i, j))
                if d[i][j] <= 0:
                    raise NotAMetric("positivity", (i, j))
        for i in range(n):
            di = d[i]
            for j in range(n):
                dij, dj = di[j], d[j]
                for k in range(n):
                    if di[k] > dij + dj[k]:
                        raise NotAMetric("triangle", (i, j, k))
        self.n = n
        self.dist = rows

    def __eq__(self, other):
        return isinstance(other, FiniteMetric) and self.dist == other.dist

    def __hash__(self):
        return hash(self.dist)

    def __repr__(self):
        return f"FiniteMetric(n={self.n})"

    def __call__(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]


def combine_metric(
    dx: FiniteMetric, dy: FiniteMetric, tau: Sequence[int] | dict[int, int]
) -> FiniteMetric:
    """Pointwise max of ``dx`` and the pullback of ``dy`` along the bijection ``tau``.

    d(i, j) = max(dx(i, j), dy(tau(i), tau(j))). The result is validated
    against all metric axioms and dominates ``dx`` entrywise by construction.
    """
    if dx.n != dy.n:
        raise SizeMismatch(f"point counts differ: {dx.n} vs {dy.n}")
    try:
        t = [tau[i] for i in range(dx.n)]
    except LookupError:  # tau misses a point
        t = None
    ints = t is not None and all(type(x) is int for x in t)  # bools and floats refused
    if not ints or len(tau) != dx.n or sorted(t) != list(range(dx.n)):
        raise NotABijection("tau must be a bijection of {0..n-1}")
    rows = [
        [max(dx.dist[i][j], dy.dist[t[i]][t[j]]) for j in range(dx.n)]
        for i in range(dx.n)
    ]
    return FiniteMetric(rows)

