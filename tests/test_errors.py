"""Every error the package raises for bad input is a ``RegOpenError``, and a
``ValueError`` too, so callers can catch either."""

import pytest

from regopen import EnumerationSpec, FiniteMetric, canonical_classes, combine_metric, ideals, run_suites
from regopen.cofinite import FINITE, SymbolicSet
from regopen.errors import (
    BadEnumerationSpec,
    CoresNotHomeomorphic,
    IndexOutOfRange,
    MalformedSpace,
    NotABijection,
    NotALattice,
    RegOpenError,
)
from regopen.ideals import IdealFamily
from regopen.lattice import (
    FiniteLattice,
    check_r_lattice,
    regular_open_lattice,
    relation_rows,
    transport_relation,
)
from regopen.topology import Topology, discrete, mask_of, x3
from regopen.transfer import DenseEmbedding, transfer_isomorphism

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


D = FiniteMetric([[0, 1], [1, 0]])
E = DenseEmbedding(x3(), {0, 1})
D2 = regular_open_lattice(discrete(2))


@pytest.mark.parametrize(
    "make, error",
    [
        pytest.param(lambda: combine_metric(D, D, [0, 1.0]), NotABijection, id="metric-float"),
        pytest.param(lambda: combine_metric(D, D, [0, True]), NotABijection, id="metric-bool"),
        pytest.param(lambda: transfer_isomorphism(E, E, {0: 0, 1: 1.0}), CoresNotHomeomorphic, id="core-float"),
        pytest.param(lambda: transfer_isomorphism(E, E, {0: 0, 1: True}), CoresNotHomeomorphic, id="core-bool"),
        pytest.param(lambda: FiniteLattice.from_leq(2, [(0, 1.0)]), NotALattice, id="from-leq-float"),
        pytest.param(lambda: FiniteLattice.from_leq(2, [(False, 1)]), NotALattice, id="from-leq-bool"),
        pytest.param(lambda: transport_relation((1, 3), (0, 1.0)), NotABijection, id="transport-float"),
        pytest.param(lambda: transport_relation((1, 3), (0, True)), NotABijection, id="transport-bool"),
        pytest.param(lambda: relation_rows(D2, [(0, 1.0)]), IndexOutOfRange, id="relation-pair-float"),
        pytest.param(lambda: relation_rows(D2, [(True, 0)]), IndexOutOfRange, id="relation-pair-bool"),
        pytest.param(lambda: check_r_lattice(D2, [1.0, 0, 0, 0]), IndexOutOfRange, id="relation-row-float"),
        pytest.param(lambda: check_r_lattice(D2, [True, 0, 0, 0]), IndexOutOfRange, id="relation-row-bool"),
        pytest.param(lambda: mask_of([1.0], 3), IndexOutOfRange, id="mask-float"),
        pytest.param(lambda: mask_of([True], 3), IndexOutOfRange, id="mask-bool"),
        pytest.param(lambda: Topology(2, [[], [0.0], [0, 1]]), IndexOutOfRange, id="open-float"),
        pytest.param(lambda: Topology(2, [False, 1, 3]), MalformedSpace, id="open-mask-bool"),
        pytest.param(lambda: Topology(2, [0, 1.0, 3]), MalformedSpace, id="open-mask-float"),
        pytest.param(lambda: Topology(2, [0, None, 3]), MalformedSpace, id="open-mask-none"),
        pytest.param(lambda: Topology(2.0, [0, 3]), MalformedSpace, id="space-size-float"),
        pytest.param(lambda: Topology(True, [0, 1]), MalformedSpace, id="space-size-bool"),
        pytest.param(lambda: discrete(2).to_mask(True), MalformedSpace, id="to-mask-bool"),
        pytest.param(lambda: discrete(2).minimal_neighborhood(1.0), IndexOutOfRange, id="nbhd-point-float"),
        pytest.param(lambda: EnumerationSpec(2.0), BadEnumerationSpec, id="spec-size-float"),
        pytest.param(lambda: EnumerationSpec(True), BadEnumerationSpec, id="spec-size-bool"),
        pytest.param(lambda: EnumerationSpec(3, limit=1.5), BadEnumerationSpec, id="spec-limit-float"),
        pytest.param(lambda: canonical_classes(2.0), BadEnumerationSpec, id="classes-size-float"),
        pytest.param(lambda: run_suites(["ux0"], 2.0), BadEnumerationSpec, id="suites-bound-float"),
    ],
)
def test_an_index_that_is_not_an_int_raises_the_documented_error(make, error):
    # an index equal to a valid one, as 1.0 and True are to 1, is still refused
    with pytest.raises(error):
        make()
