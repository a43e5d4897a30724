"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions are the same either way.
"""

import time

from regopen import (
    DenseEmbedding,
    EnumerationSpec,
    canonical_open_masks,
    counterexample_search,
    discrete,
    enumerate_topologies,
    point_recovery,
    regular_open_lattice,
    run_suite,
    sierpinski,
    stone_space,
    transfer_isomorphism,
    ultrafilters,
    x3,
)

from oracles import brute_force_topologies

fs = frozenset
N4_BOUND = 4
UX0_TIME_BUDGET_S = 60.0


def _report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_exhaustive_dense_restriction_isomorphism():
    start = time.perf_counter()
    report = run_suite("ux0", bound=N4_BOUND)
    elapsed = time.perf_counter() - start
    _report(
        1,
        report.passed and elapsed < UX0_TIME_BUDGET_S,
        f"restriction isomorphism on all {report.instances} (space, dense subset) "
        f"instances with n <= 4, {len(report.failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_2_exhaustive_lemma_suite():
    reports = {name: run_suite(name, bound=N4_BOUND) for name in ("regularity", "denso", "uvw")}
    ok = all(r.passed for r in reports.values())
    detail = ", ".join(
        f"{name}: {r.instances} instances / {len(r.failures)} failures"
        for name, r in reports.items()
    )
    _report(2, ok, detail)


def test_criterion_3_enumeration_fidelity():
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    ok = True
    counts = {}
    for n, want in expected.items():
        generated = [t.open_masks for t in enumerate_topologies(EnumerationSpec(n))]
        oracle = [t.open_masks for t in brute_force_topologies(n)]
        counts[n] = len(generated)
        ok = ok and len(generated) == want and generated == oracle
    _report(3, ok, f"labeled topology counts {counts} match the brute-force oracle")


def test_criterion_4_boolean_structure_and_r_lattice_axioms():
    boolean = run_suite("boolean", bound=N4_BOUND)
    rlattice = run_suite("rlattice", bound=N4_BOUND)
    _report(
        4,
        boolean.passed and rlattice.passed,
        f"all {boolean.instances} regular-open lattices Boolean+distributive; "
        f"six axioms with the >= relation pass on all {rlattice.instances}",
    )


GALLERY_SIZE_N3 = 34
DIFFERING_PAIRS_N3 = {
    ((0, 1, 2, 3), (0, 1, 2, 3, 7)),
    ((0, 1, 6, 7), (0, 1, 2, 3, 7)),
    ((0, 1, 2, 3, 7), (0, 1, 2, 3, 5, 7)),
}


def test_criterion_5_counterexample_gallery():
    pairs = counterexample_search(3)
    keys = {(canonical_open_masks(p.t1), canonical_open_masks(p.t2)) for p in pairs}
    has_point_sierpinski = (
        canonical_open_masks(discrete(1)),
        canonical_open_masks(sierpinski()),
    ) in keys
    differing = {
        (canonical_open_masks(p.t1), canonical_open_masks(p.t2))
        for p in pairs
        if not p.same_under_reported_iso
    }
    ok = (
        len(pairs) == GALLERY_SIZE_N3
        and has_point_sierpinski
        and differing == DIFFERING_PAIRS_N3
    )
    _report(
        5,
        ok,
        f"{len(pairs)} pairs at n <= 3 incl. (point, Sierpinski); "
        f"{len(differing)} pairs with differing induced relations (pinned)",
    )


def test_criterion_6_point_recovery_and_round_trip():
    X3, D2 = x3(), discrete(2)
    bx = [fs({0}), fs({1}), fs({0, 1, 2})]
    by = [fs({0}), fs({1}), fs({0, 1})]
    iso = {fs({0}): fs({0}), fs({1}): fs({1}), fs({0, 1, 2}): fs({0, 1})}
    ph = point_recovery(X3, bx, D2, by, iso)
    compatible = all(
        (x in u) == (y in iso[u]) for x, y in ph.tau.items() for u in bx
    )
    ex = DenseEmbedding(X3, {0, 1})
    ey = DenseEmbedding(D2, {0, 1})
    there = transfer_isomorphism(ex, ey, {0: 0, 1: 1})
    back = transfer_isomorphism(ey, ex, {0: 0, 1: 1})
    round_trip_identity = all(
        back.forward[there.forward[i]] == i for i in range(there.source.m)
    )
    ok = (
        ph.x0 == fs({0, 1})
        and X3.is_dense(ph.x0)
        and ph.y0 == fs({0, 1})
        and compatible
        and round_trip_identity
    )
    _report(
        6,
        ok,
        f"recovered X0={sorted(ph.x0)} dense, Y0={sorted(ph.y0)}, tau compatible; "
        f"round-trip transfer is the identity on all {there.source.m} regular opens",
    )


def test_criterion_7_finite_stone_duality():
    ok = True
    spaces = 0
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            lat = regular_open_lattice(t)
            st = stone_space(lat)
            spaces += 1
            clopen = regular_open_lattice(st.space)
            ok = ok and st.space.n == len(lat.atoms()) and clopen.m == lat.m
            ok = ok and all(
                lat.leq(u, v) == (st.to_clopen[u] <= st.to_clopen[v])
                for u in range(lat.m)
                for v in range(lat.m)
            )
    uf_ok = all(
        len(ultrafilters(n)) == n
        and all(u.point in a for u in ultrafilters(n) for a in u.members)
        for n in range(1, 6)
    )
    _report(
        7,
        ok and uf_ok,
        f"stone spaces of all {spaces} lattices at n <= 3 have atom-many points "
        f"with clopen algebra isomorphic; ultrafilter counts 1..5 principal",
    )


def test_criterion_8_symbolic_cofinite():
    report = run_suite("cofinite", bound=1)
    _report(
        8,
        report.passed,
        "two-element regular-open family; every operation on the 64 sets with supports in {0..4} "
        "and on every ordered pair of them matches membership",
    )


def test_criterion_9_metric_combination():
    report = run_suite("metric", bound=1)
    _report(
        9,
        report.passed,
        "the pointwise max over every pair of the 24 three-point metrics with distances in {1, 2, 3}, "
        "and over every permutation with distinct distances: axioms by triple scan",
    )
