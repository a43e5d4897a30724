"""Exact rational metrics and their max-combination."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regopen import FiniteMetric, combine_metric
from regopen.errors import NotABijection, NotAMetric, SizeMismatch

from oracles import triangle_oracle

ZERO_ONE = FiniteMetric([[0, 1], [1, 0]])


def test_axioms_validated():
    with pytest.raises(NotAMetric) as exc:
        FiniteMetric([[0, 1], [2, 0]])
    assert exc.value.axiom == "symmetry"
    with pytest.raises(NotAMetric) as exc:
        FiniteMetric([[0, 0], [0, 0]])
    assert exc.value.axiom == "positivity"
    with pytest.raises(NotAMetric) as exc:
        FiniteMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert exc.value.axiom == "triangle"


def _triangle_witness(rows):
    """The witness FiniteMetric raises for ``rows``, or None if it accepts them."""
    try:
        FiniteMetric(rows)
    except NotAMetric as exc:
        assert exc.axiom == "triangle"
        return exc.witness
    return None


def test_triangle_scan_matches_fraction_oracle():
    # symmetric, positive 4- and 5-point matrices with denominators 3, 16 and 7
    # mixed; distances in [1, 3] break the triangle inequality often
    rnd = random.Random(23)
    accepted = refused = 0
    for trial in range(400):
        n = 4 + trial % 2
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                den = rnd.choice((3, 16, 7))
                rows[i][j] = rows[j][i] = Fraction(rnd.randint(den, 3 * den), den)
        witness = triangle_oracle(rows)
        assert _triangle_witness(rows) == witness
        accepted += witness is None
        refused += witness is not None
    assert accepted > 100 and refused > 100


def test_triangle_boundary_is_exact():
    third, sixteenth = Fraction(1, 3), Fraction(1, 16)

    def three_points(far):
        return [[0, third, far], [third, 0, sixteenth], [far, sixteenth, 0]]

    assert _triangle_witness(three_points(third + sixteenth)) is None  # equality holds
    assert _triangle_witness(three_points(third + sixteenth + Fraction(1, 48))) == (0, 1, 2)
    assert _triangle_witness(three_points(third + sixteenth + Fraction(1, 336))) == (0, 1, 2)
    assert _triangle_witness([[0, 1, Fraction(15, 7)], [1, 0, 1], [Fraction(15, 7), 1, 0]]) == (0, 1, 2)


def test_combine_equal_metrics_is_identity():
    assert combine_metric(ZERO_ONE, ZERO_ONE, [0, 1]) == ZERO_ONE


def test_combine_takes_pointwise_max():
    dy = FiniteMetric([[0, 3], [3, 0]])
    dz = combine_metric(ZERO_ONE, dy, [0, 1])
    assert dz(0, 1) == 3


def test_combine_respects_bijection():
    dx = FiniteMetric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    dy = FiniteMetric([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    # tau sends 0 -> 2 and 1 -> 0, so dy(2, 0) applies between points 0 and 1
    dz = combine_metric(dx, dy, {0: 2, 1: 0, 2: 1})
    assert dz(0, 1) == dy(2, 0) == 1
    assert dz(1, 2) == dy(0, 1) == 2


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        combine_metric(ZERO_ONE, FiniteMetric([[0]]), [0, 1])


def test_non_bijection_rejected():
    with pytest.raises(NotABijection):
        combine_metric(ZERO_ONE, ZERO_ONE, [0, 0])


@pytest.mark.parametrize(
    "tau",
    [{0: 1}, [1], [0, 1, 7], {0: 0, 1: 1, 5: 9}],
    ids=["dict", "list", "list-beyond-n", "dict-beyond-n"],
)
def test_a_tau_that_misses_a_point_is_not_a_bijection(tau):
    with pytest.raises(NotABijection, match="tau must be a bijection"):
        combine_metric(ZERO_ONE, ZERO_ONE, tau)


def test_exact_fractions_survive():
    d = FiniteMetric([[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
    assert combine_metric(d, ZERO_ONE, [0, 1])(0, 1) == 1
    assert combine_metric(d, d, [0, 1])(0, 1) == Fraction(1, 3)


@st.composite
def metric_in_unit_band(draw):
    # distances in [1, 2] satisfy the triangle inequality automatically
    n = 4
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = 1 + Fraction(draw(st.integers(0, 16)), 16)
    return FiniteMetric(rows)


@given(metric_in_unit_band(), metric_in_unit_band(), st.permutations(range(4)))
@settings(max_examples=150)
def test_combination_is_metric_and_dominates(dx, dy, tau):
    dz = combine_metric(dx, dy, list(tau))  # constructor re-scans all axioms
    assert all(dz(i, j) >= dx(i, j) for i in range(4) for j in range(4))
    for i in range(4):
        for j in range(4):
            assert dz(i, j) == max(dx(i, j), dy(tau[i], tau[j]))
