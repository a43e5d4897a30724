"""The suite driver: pass/fail behaviour, determinism, instance accounting,
and the counterexample gallery."""

import pytest

from regopen import counterexample_search, run_suite, sierpinski, suites, x3
from regopen.enumeration import EnumerationSpec, enumerate_dense_subsets, enumerate_topologies
from regopen.errors import BadSuiteArgument, SizeGuardExceeded, UnknownSuite
from regopen.lattice import find_order_isomorphisms, regular_open_lattice, transport_relation
from regopen.suites import SUITES, SpaceContext
from regopen.topology import canonical_open_masks, discrete


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_small_bound(name):
    report = run_suite(name, bound=2)
    assert report.passed
    assert report.instances > 0


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", bound=2)


def test_ux0_instance_count_matches_dense_oracle():
    report = run_suite("ux0", bound=3)
    expected = sum(
        len(enumerate_dense_subsets(t))
        for n in (1, 2, 3)
        for t in enumerate_topologies(EnumerationSpec(n))
    )
    assert report.passed and report.instances == expected


def test_reports_are_byte_identical_across_runs():
    a = run_suite("uvw", bound=3).to_json()
    b = run_suite("uvw", bound=3).to_json()
    assert a == b


def test_shared_context_reports_equal_lone_runs():
    context = SpaceContext()
    for name in sorted(SUITES):
        shared = run_suite(name, bound=3, context=context)
        assert shared.to_json() == run_suite(name, bound=3).to_json()


def test_bound_below_one_is_refused_before_enumerating(monkeypatch):
    monkeypatch.setattr(suites, "enumerate_topologies", None)  # enumerating would raise TypeError
    for bound in (0, -1):
        with pytest.raises(BadSuiteArgument):
            run_suite("ux0", bound=bound)


def test_negative_sample_is_refused():
    with pytest.raises(BadSuiteArgument):
        run_suite("boolean", bound=2, sample=-1)


def test_run_that_checked_nothing_does_not_pass():
    report = run_suite("boolean", bound=2, sample=0)
    assert report.instances == 0 and report.failures == []
    assert not report.passed
    assert report.to_dict()["passed"] is False


def test_sampling_is_deterministic():
    a = run_suite("denso", bound=3, sample=50, seed=7)
    b = run_suite("denso", bound=3, sample=50, seed=7)
    assert a.instances == b.instances == 50
    assert a.to_json() == b.to_json()


def test_recovery_suite_sampled_at_four_points():
    # exhaustive at n <= 3 elsewhere; n = 4 is spot-checked via sampling
    report = run_suite("recovery", bound=4, sample=150, seed=3)
    assert report.passed and report.instances == 150


def test_gated_five_point_scale_with_sampling():
    report = run_suite("boolean", bound=5, sample=40, seed=5, allow_n5=True)
    assert report.passed and report.instances == 40
    with pytest.raises(SizeGuardExceeded):
        run_suite("boolean", bound=5, sample=5)


def test_report_shape():
    d = run_suite("boolean", bound=2).to_dict()
    assert d["schema"] == 1
    assert d["passed"] is True and d["failures"] == []
    assert "wall_time_s" not in d  # volatile field excluded from canonical form
    assert "wall_time_s" in run_suite("boolean", bound=2).to_dict(include_timing=True)


# -- counterexample gallery -------------------------------------------------------


def test_gallery_contains_point_and_sierpinski():
    pairs = counterexample_search(2)
    keys = {
        (p.t1.n, canonical_open_masks(p.t1), p.t2.n, canonical_open_masks(p.t2))
        for p in pairs
    }
    point = discrete(1)
    s = sierpinski()
    assert (1, canonical_open_masks(point), 2, canonical_open_masks(s)) in keys


def test_gallery_never_pairs_homeomorphic_spaces():
    for p in counterexample_search(3):
        assert canonical_open_masks(p.t1) != canonical_open_masks(p.t2) or p.t1.n != p.t2.n


def test_gallery_isos_verify_and_relations_transport():
    for p in counterexample_search(3):
        l1 = regular_open_lattice(p.t1)
        l2 = regular_open_lattice(p.t2)
        isos = find_order_isomorphisms(l1, l2)
        assert p.iso in isos
        # symmetric closure: the inverse is a verified iso the other way
        inverse = tuple(p.iso.index(i) for i in range(len(p.iso)))
        assert inverse in find_order_isomorphisms(l2, l1)
        assert p.same_under_reported_iso == (
            transport_relation(p.rel1, p.iso) == p.rel2
        )
        assert p.same_under_some_iso == any(
            transport_relation(p.rel1, phi) == p.rel2 for phi in isos
        )


def test_gallery_contains_differing_relations_pair():
    pairs = counterexample_search(3)
    differing = [p for p in pairs if not p.same_under_reported_iso]
    assert differing
    # the four-element flagship: the discrete pair against the space with a
    # shared boundary point
    keys = {
        (canonical_open_masks(p.t1), canonical_open_masks(p.t2)) for p in differing
    }
    assert (canonical_open_masks(discrete(2)), canonical_open_masks(x3())) in keys


def test_gallery_guard():
    with pytest.raises(SizeGuardExceeded):
        counterexample_search(5)
