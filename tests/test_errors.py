"""Every error the package raises for bad input is a ``RegOpenError``, and a
``ValueError`` too, so callers can catch either."""

import pytest

from regopen import FiniteMetric, ideals
from regopen.cofinite import FINITE, SymbolicSet
from regopen.errors import RegOpenError
from regopen.ideals import IdealFamily
from regopen.lattice import FiniteLattice, check_r_lattice, relation_rows

EMPTY, ZERO, ONE, BOTH = frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: ideals(0), id="ideals-no-points"),
        pytest.param(lambda: IdealFamily(2, frozenset()), id="ideal-empty"),
        pytest.param(lambda: IdealFamily(1, frozenset({EMPTY, ONE})), id="ideal-outside-ambient"),
        pytest.param(lambda: IdealFamily(2, frozenset({EMPTY, ZERO, ONE})), id="ideal-not-union-closed"),
        pytest.param(lambda: IdealFamily(2, frozenset({ZERO})), id="ideal-not-downward-closed"),
        pytest.param(lambda: FiniteMetric([]), id="metric-no-points"),
        pytest.param(lambda: relation_rows(FiniteLattice.from_leq(2, [(0, 1)]), {(0, 5)}), id="relation-pair"),
        pytest.param(lambda: check_r_lattice(FiniteLattice.from_leq(2, [(0, 1)]), [0b01]), id="relation-row-count"),
        pytest.param(lambda: check_r_lattice(FiniteLattice.from_leq(2, [(0, 1)]), [0b01, 0b100]), id="relation-row-bit"),
        pytest.param(lambda: SymbolicSet("open", EMPTY), id="symbolic-kind"),
        pytest.param(lambda: SymbolicSet(FINITE, 5), id="symbolic-support-type"),
        pytest.param(lambda: SymbolicSet(FINITE, frozenset({-1})), id="symbolic-negative-label"),
    ],
)
def test_bad_input_raises_a_regopen_error(make):
    with pytest.raises(RegOpenError) as caught:
        make()
    assert isinstance(caught.value, ValueError)
