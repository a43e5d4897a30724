"""Dense-subspace transfer: restriction/extension isomorphisms, separating
witnesses, the common-core composite, and point recovery."""

import itertools
import random

import pytest

from regopen import (
    DenseEmbedding,
    EnumerationSpec,
    LatticeIsoWitness,
    Topology,
    canonical_classes,
    closure_density_check,
    discrete,
    enumerate_dense_subsets,
    enumerate_topologies,
    point_recovery,
    regular_open_lattice,
    restriction_isomorphism,
    separating_witness,
    sierpinski,
    transfer_isomorphism,
    x3,
)
from regopen.errors import (
    CompositionNotIdentity,
    CompositionNotIso,
    ContainmentHolds,
    CoresNotHomeomorphic,
    NotABasis,
    NotABijection,
    NotDense,
    NotInclusionPreserving,
    NotOpen,
    NotRegularOpen,
    RegOpenError,
    VerificationError,
)
from regopen.enumeration import dense_masks
from regopen.serialize import space_to_dict
from regopen.suites import SpaceContext, run_suite
from regopen.topology import _carries_neighbourhoods, compress_mask, permute_mask, set_of
from regopen import suites, transfer
from regopen.transfer import (
    check_basis,
    dense_rows,
    restriction_maps,
    separations_failing,
    traces_losing_closure,
)

from oracles import (
    basis_oracle,
    closure_oracle,
    find_homeomorphism_oracle,
    interior_oracle,
    order_preserved_oracle,
    recovery_oracle,
    subspace_homeomorphism_oracle,
    transfer_oracle,
)

fs = frozenset
X3 = x3()
S = sierpinski()
D2 = discrete(2)


def test_dense_embedding_requires_density():
    with pytest.raises(NotDense):
        DenseEmbedding(discrete(2), {0})


# -- restriction and extension -------------------------------------------------


def _extend(w, v):
    """The image of the regular open ``v`` of the subspace under the
    inverse map ``w.backward`` of the restriction isomorphism ``w``."""
    down = w.target
    return w.source.element(w.backward[down.index_of_mask[down.topology.to_mask(v)]])


def test_restrict_frozen_values():
    w = restriction_isomorphism(DenseEmbedding(X3, {0, 1}))
    assert w.apply({0}) == fs({0})
    assert w.apply(fs()) == fs()
    w1 = restriction_isomorphism(DenseEmbedding(S, {0}))
    assert w1.apply({0, 1}) == fs({0})


def test_extend_frozen_values():
    w = restriction_isomorphism(DenseEmbedding(X3, {0, 1}))
    assert _extend(w, {0, 1}) == fs({0, 1, 2})
    assert _extend(w, fs()) == fs()
    w1 = restriction_isomorphism(DenseEmbedding(S, {0}))
    assert _extend(w1, {0}) == fs({0, 1})


def test_restrict_rejects_non_regular():
    w = restriction_isomorphism(DenseEmbedding(X3, {0, 1}))
    with pytest.raises(NotRegularOpen):
        w.apply({0, 1})  # open but not regular in X3


def test_restriction_isomorphism_x3():
    w = restriction_isomorphism(DenseEmbedding(X3, {0, 1}))
    assert w.source.m == w.target.m == 4
    assert w.apply({0}) == fs({0})
    assert w.apply({0, 1, 2}) == fs({0, 1})


def test_restriction_isomorphism_identity_on_full_subset():
    for t in (S, X3, discrete(3)):
        w = restriction_isomorphism(DenseEmbedding(t, range(t.n)))
        assert w.forward == tuple(range(w.source.m))


def test_restriction_isomorphism_exhaustive_small():
    """The flagship scan at n <= 3: every space, every dense subset."""
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            for y in enumerate_dense_subsets(t):
                w = restriction_isomorphism(DenseEmbedding(t, y))
                for i in range(w.source.m):
                    assert w.backward[w.forward[i]] == i


def test_restriction_kernel_maps_are_those_of_restriction_isomorphism():
    # every (space, dense set) with n <= 4: the same forward and backward
    # tuples from the reg table as from regularize_mask, over the same
    # lattices, and no failure in the ux0 suite
    ctx = SpaceContext()
    instances = 0
    for t in ctx.spaces(4):
        up, reg = ctx.lattice(t), t.operator_tables()[2]
        dense = dense_masks(t)
        for y in dense:
            witness = restriction_isomorphism(DenseEmbedding(t, y))
            down = ctx.lattice(ctx.subspace(t, y))
            assert down.topology == witness.target.topology
            maps = restriction_maps(up, down, y, dense_rows(y), reg)
            assert maps == (witness.forward, witness.backward)
        instances += len(dense)
    report = run_suite("ux0", 4)
    assert report.failures == [] and report.instances == instances


def _swapping_first_two_images(monkeypatch, keep_inverse: bool) -> None:
    maps = suites.restriction_maps

    def doctored(up, down, y, rows, reg):
        forward, backward = maps(up, down, y, rows, reg)
        if up.m < 2:
            return forward, backward
        f = list(forward)
        f[0], f[1] = f[1], f[0]
        b = [f.index(j) for j in range(len(f))] if keep_inverse else backward
        return tuple(f), tuple(b)

    monkeypatch.setattr(suites, "restriction_maps", doctored)


@pytest.mark.parametrize(
    "keep_inverse, message",
    [(False, "backward(forward(.)) moved a regular open"), (True, "order not preserved")],
)
def test_restriction_kernel_refuses_a_forward_map_with_two_images_swapped(
    monkeypatch, keep_inverse, message
):
    # the images of the bottom and of element 1 trade places; kept mutually
    # inverse, the maps still break the order, since only the bottom lies
    # below everything
    _swapping_first_two_images(monkeypatch, keep_inverse)
    doctored = [
        (space_to_dict(t), sorted(set_of(y)))
        for n in (1, 2, 3)
        for t in enumerate_topologies(EnumerationSpec(n))
        if regular_open_lattice(t).m >= 2
        for y in dense_masks(t)
    ]
    failed = run_suite("ux0", 3).failures
    assert [(f["space"], f["dense"]) for f in failed] == doctored
    assert all(f["error"].startswith(message) for f in failed)
    assert failed


def test_trace_reads_only_the_dense_points_and_lift_is_int_cl():
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            for y in dense_masks(t):
                e = DenseEmbedding(t, y)
                points, lift, trace = dense_rows(y)
                for mask in range(t.full_mask + 1):
                    inside = {e.index_map[p] for p in set_of(mask) if y >> p & 1}
                    assert set_of(trace[mask & y]) == inside
                for v in range(e.sub.full_mask + 1):
                    upstairs = frozenset(points[i] for i in set_of(v))
                    assert set_of(t.regularize_mask(lift[v])) == interior_oracle(t, closure_oracle(t, upstairs))


def _assert_rows_match_the_bit_loops(y: int, ambient_masks) -> None:
    points, lift, trace = dense_rows(y)
    assert points == tuple(sorted(set_of(y)))
    assert lift == tuple(permute_mask(i, points) for i in range(1 << len(points)))
    for m in ambient_masks:
        assert trace[m & y] == compress_mask(m, points)


def test_cached_rows_match_compress_and_permute():
    # every mask Y on up to 6 points against every ambient mask there, and
    # one 12-point Y of a 16-point space against a seeded sample of masks
    for y in range(1, 1 << 6):
        _assert_rows_match_the_bit_loops(y, range(1 << 6))
    y = 0b1011_0111_1101_1011
    assert y.bit_count() == 12
    rng = random.Random(12)
    _assert_rows_match_the_bit_loops(y, [rng.randrange(1 << 16) for _ in range(5000)])


def test_embedding_builds_its_subspace_and_checks_density():
    for t in enumerate_topologies(EnumerationSpec(3)):
        for y in enumerate_dense_subsets(t):
            mask = t.to_mask(y)
            sub, index_map = t.subspace(y)
            for e in (DenseEmbedding(t, y), DenseEmbedding(t, mask)):
                assert e.ambient is t and (e.sub, e.index_map) == (sub, index_map)
                assert sorted(e.index_map, key=e.index_map.get) == sorted(y)
    with pytest.raises(NotDense, match=r"\[2\] is not dense in the ambient space"):
        DenseEmbedding(X3, {2})


def _planted_trace_row(monkeypatch, image) -> None:
    # the trace row of Y, which restriction_maps reads, sends each
    # subspace index i to image(i)
    rows = transfer.dense_rows

    def wrong(mask):
        points, lift, trace = rows(mask)
        return points, lift, {s: image(i) for s, i in trace.items()}

    monkeypatch.setattr(transfer, "dense_rows", wrong)


def test_trace_or_lift_outside_the_regular_opens_is_a_verification_error(monkeypatch):
    # built before the plants below, which would break their construction
    e = DenseEmbedding(X3, {0, 1})
    with monkeypatch.context() as m:
        _planted_trace_row(m, lambda i: 0b100)  # not a subspace set
        with pytest.raises(VerificationError, match="trace") as exc:
            restriction_isomorphism(e)
        assert exc.value.witness == []
    monkeypatch.setattr(Topology, "regularize_mask", lambda t, a: a)  # lift is plain expansion
    with pytest.raises(VerificationError, match="extension") as exc:
        restriction_isomorphism(e)
    assert exc.value.witness == [0, 1]


def test_broken_round_trip_names_the_point_set(monkeypatch):
    # a trace that loses the subspace's last point sends {1} to the empty set
    e = DenseEmbedding(X3, {0, 1})
    _planted_trace_row(monkeypatch, lambda i: i & ~0b10)
    with pytest.raises(CompositionNotIdentity) as exc:
        restriction_isomorphism(e)
    assert exc.value.witness == [1]


def test_order_check_matches_the_pairwise_scan():
    # every bijection of the 4-element algebra and a seeded sample of the
    # 8-element one: each is accepted iff the pairwise scan accepts it, and a
    # refused one names the scan's first pair
    rng = random.Random(3)
    cases = [(regular_open_lattice(D2), p) for p in itertools.permutations(range(4))]
    d3 = regular_open_lattice(discrete(3))
    cases += [(d3, tuple(rng.sample(range(8), 8))) for _ in range(200)]
    refused = 0
    for lat, forward in cases:
        backward = tuple(sorted(range(lat.m), key=forward.__getitem__))
        try:
            order_preserved_oracle(lat, lat, forward)
        except CompositionNotIso as expected:
            with pytest.raises(CompositionNotIso) as exc:
                LatticeIsoWitness(lat, lat, forward, backward)
            assert str(exc.value) == str(expected)
            assert exc.value.witness == expected.witness
            refused += 1
        else:
            assert LatticeIsoWitness(lat, lat, forward, backward).forward == forward
    assert 0 < refused < len(cases)


@pytest.mark.parametrize(
    "forward, backward",
    [
        ((0, 1, 2, 9), (0, 1, 2, 3)),
        ((0, 1, 2), (0, 1, 2, 3)),
        ((-1, 0, 1, 2), (0, 1, 2, 3)),
        ((0, 1, 2, 3), (0, 1, 2, 3, 99)),
    ],
    ids=["index-beyond-m", "too-short", "negative-index", "backward-too-long"],
)
def test_witness_refuses_maps_that_are_not_m_indices(forward, backward):
    lat = regular_open_lattice(X3)
    assert lat.m == 4
    with pytest.raises(NotABijection, match="^forward and backward must each be 4 element indices in range"):
        LatticeIsoWitness(lat, lat, forward, backward)


def test_apply_refuses_a_set_that_is_not_regular_open():
    w = restriction_isomorphism(DenseEmbedding(X3, {0, 1}))
    assert w.apply({0}) == fs({0})
    with pytest.raises(NotRegularOpen):
        w.apply({0, 1})  # open in X3, but int(cl({0, 1})) is the whole space


# -- closure agreement over dense traces -------------------------------------------


def test_closure_density_frozen_values():
    assert closure_density_check(S, {0}, {0, 1})
    assert closure_density_check(X3, {0, 1}, {0})
    assert closure_density_check(X3, {0, 1}, fs())
    # the kernel trusts that Y is dense: {1} is not, and misses cl({0}) = {0, 2};
    # its pairs are (011, 001), (011, 0), (010, 001), (010, 0), in that order
    assert traces_losing_closure(X3.closure_table(), [0b011, 0b010], [0b001, 0]) == [2]


def test_closure_density_validates_arguments():
    with pytest.raises(NotOpen):
        closure_density_check(X3, {0, 1}, {2})
    with pytest.raises(NotDense):
        closure_density_check(D2, {0}, {0})


def test_closure_density_exhaustive_small():
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            for y in enumerate_dense_subsets(t):
                for u in t.opens:
                    assert closure_density_check(t, y, u)
                    # and the quantity itself matches the naive oracle
                    assert t.closure(u) == closure_oracle(t, frozenset(u) & y)


# -- separating witnesses ---------------------------------------------------------


def test_separating_witness_frozen_values():
    assert separating_witness(discrete(3), {0, 1}, {1, 2}) == fs({0})
    assert separating_witness(X3, {0}, {1}) == fs({0})


def test_separating_witness_containment_path():
    with pytest.raises(ContainmentHolds):
        separating_witness(discrete(3), {1}, {1, 2})
    with pytest.raises(NotRegularOpen):
        separating_witness(X3, {0, 1}, {0})


def test_separating_witness_postconditions_exhaustive():
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            regs = t.regular_opens()
            for u in regs:
                for v in regs:
                    if u <= v:
                        continue
                    w = separating_witness(t, u, v)
                    assert w and w <= u and not (w & v)
                    assert t.is_regular_open(w)


def _separation_raises(t, pairs) -> list[tuple[int, str]]:
    failed = []
    for pos, (u, v) in enumerate(pairs):
        try:
            separating_witness(t, u, v)
        except RegOpenError as exc:
            failed.append((pos, str(exc)))
    return failed


def test_separation_kernel_fails_where_separating_witness_raises():
    # every pair of opens with n <= 4, regular or not, nested or not, and
    # a seeded sample of pairs of 5-point subsets
    messages = set()
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(EnumerationSpec(n)):
            pairs = list(itertools.product(t.open_masks, repeat=2))
            expected = _separation_raises(t, pairs)
            cl, _, reg = t.operator_tables()
            assert separations_failing(t, cl, reg, pairs) == expected
            messages |= {message.split("=")[0] for _, message in expected}
    assert messages == {"U", "V", "U is contained in V; no separating witness exists"}
    rng = random.Random(23)
    spaces = list(enumerate_topologies(EnumerationSpec(5, allow_n5=True)))
    for t in rng.sample(spaces, 300):
        regs = t.regular_open_masks()
        pairs = [(rng.choice(regs), rng.choice(regs)) for _ in range(10)]
        pairs += [(rng.randrange(32), rng.randrange(32)) for _ in range(10)]
        cl, _, reg = t.operator_tables()
        assert separations_failing(t, cl, reg, pairs) == _separation_raises(t, pairs)


# -- transfer through a common core --------------------------------------------------


def test_transfer_x3_d2():
    ex = DenseEmbedding(X3, {0, 1})
    ey = DenseEmbedding(D2, {0, 1})
    w = transfer_isomorphism(ex, ey, {0: 0, 1: 1})
    images = {
        tuple(sorted(w.source.element(i))): tuple(sorted(w.target.element(w.forward[i])))
        for i in range(w.source.m)
    }
    assert images == {(): (), (0,): (0,), (1,): (1,), (0, 1, 2): (0, 1)}


def test_transfer_identity_when_core_is_whole_space():
    e = DenseEmbedding(X3, range(3))
    w = transfer_isomorphism(e, e, {i: i for i in range(3)})
    assert w.forward == tuple(range(w.source.m))


def test_transfer_sierpinski_to_point():
    ex = DenseEmbedding(S, {0})
    ey = DenseEmbedding(discrete(1), {0})
    w = transfer_isomorphism(ex, ey, {0: 0})
    assert w.source.m == w.target.m == 2


def test_transfer_roundtrip_is_identity():
    ex = DenseEmbedding(X3, {0, 1})
    ey = DenseEmbedding(D2, {0, 1})
    there = transfer_isomorphism(ex, ey, {0: 0, 1: 1})
    back = transfer_isomorphism(ey, ex, {0: 0, 1: 1})
    for i in range(there.source.m):
        assert back.forward[there.forward[i]] == i


def test_transfer_rejects_non_homeomorphic_cores():
    chain = Topology(3, [0b000, 0b001, 0b011, 0b111])
    ex = DenseEmbedding(chain, {0, 1})  # subspace is Sierpinski, not discrete
    ey = DenseEmbedding(D2, {0, 1})
    with pytest.raises(CoresNotHomeomorphic):
        transfer_isomorphism(ex, ey, {0: 0, 1: 1})
    with pytest.raises(CoresNotHomeomorphic):
        transfer_isomorphism(DenseEmbedding(X3, {0, 1}), ey, {0: 0, 1: 0})


@pytest.mark.parametrize(
    "core_map", [{}, {0: 1}, {0: 0, 1: 1, 2: 5}], ids=["empty", "one-point", "beyond-the-core"]
)
def test_transfer_rejects_a_core_map_that_misses_a_point(core_map):
    e = DenseEmbedding(X3, {0, 1})
    with pytest.raises(CoresNotHomeomorphic, match="^core map is not a bijection$"):
        transfer_isomorphism(e, e, core_map)


def test_transfer_matches_the_pointwise_oracle():
    # every pair of embeddings on up to 3 points whose cores are homeomorphic
    embeddings = [
        DenseEmbedding(t, y)
        for n in (1, 2, 3)
        for t in enumerate_topologies(EnumerationSpec(n))
        for y in dense_masks(t)
    ]
    pairs = 0
    for ex, ey in itertools.product(embeddings, repeat=2):
        core_map = find_homeomorphism_oracle(ex.sub, ey.sub)
        if core_map is None:
            continue
        w = transfer_isomorphism(ex, ey, core_map)
        images = {w.source.element(i): w.target.element(j) for i, j in enumerate(w.forward)}
        assert images == transfer_oracle(ex, ey, core_map)
        pairs += 1
    assert (len(embeddings), pairs) == (110, 2124)


def test_transfer_trace_outside_the_regular_opens_is_a_verification_error(monkeypatch):
    ex = DenseEmbedding(X3, {0, 1})
    ey = DenseEmbedding(D2, {0, 1})
    _planted_trace_row(monkeypatch, lambda i: 0b100)  # not a core set
    with pytest.raises(VerificationError, match="trace") as exc:
        transfer_isomorphism(ex, ey, {0: 0, 1: 1})
    assert exc.value.witness == []


# -- point recovery --------------------------------------------------------------------


BX = [fs({0}), fs({1}), fs({0, 1, 2})]
BY = [fs({0}), fs({1}), fs({0, 1})]
CANONICAL_ISO = {fs({0}): fs({0}), fs({1}): fs({1}), fs({0, 1, 2}): fs({0, 1})}


def test_point_recovery_x3_d2():
    ph = point_recovery(X3, BX, D2, BY, CANONICAL_ISO)
    assert ph.x0 == fs({0, 1}) and ph.y0 == fs({0, 1})
    assert ph.tau == {0: 0, 1: 1}
    assert ph.recovery_x[2] == fs({0, 1})  # not a singleton: 2 is not recovered
    assert X3.is_dense(ph.x0)


def test_point_recovery_swapped_iso():
    swap = {fs({0}): fs({1}), fs({1}): fs({0}), fs({0, 1, 2}): fs({0, 1})}
    ph = point_recovery(X3, BX, D2, BY, swap)
    assert ph.tau == {0: 1, 1: 0}


def test_point_recovery_identity_on_discrete():
    basis = [s for s in D2.regular_opens() if s]
    ph = point_recovery(D2, basis, D2, basis, {s: s for s in basis})
    assert ph.x0 == fs({0, 1}) and ph.tau == {0: 0, 1: 1}


def test_point_recovery_validates_basis():
    with pytest.raises(NotABasis, match=r"least neighbourhood \[0\] of point 0 is not a basis member"):
        point_recovery(X3, [fs({0, 1, 2})], D2, BY, {fs({0, 1, 2}): fs({0, 1})})
    with pytest.raises(NotABasis, match=r"basis member \[2\] is not open"):
        point_recovery(X3, [fs({2}), fs({0}), fs({1}), fs({0, 1, 2})], D2, BY, {})


def test_point_recovery_rejects_a_map_that_is_not_a_bijection():
    not_onto = {fs({0}): fs({0}), fs({1}): fs({0}), fs({0, 1, 2}): fs({0, 1})}
    with pytest.raises(NotABijection):
        point_recovery(X3, BX, D2, BY, not_onto)


def test_point_recovery_validates_inclusion_preservation():
    bx = [fs({0}), fs({1}), fs({0, 1}), fs({0, 1, 2})]
    by = [fs(), fs({0}), fs({1}), fs({0, 1})]
    bad = {
        fs({0}): fs({0}),
        fs({1}): fs({0, 1}),
        fs({0, 1}): fs({1}),
        fs({0, 1, 2}): fs(),
    }
    with pytest.raises(NotInclusionPreserving):
        point_recovery(X3, bx, D2, by, bad)
    # preserves every inclusion but does not reflect {} <= {0}
    preserving = {fs({0}): fs(), fs({1}): fs({0}), fs({0, 1}): fs({0, 1})}
    with pytest.raises(NotInclusionPreserving):
        point_recovery(D2, list(preserving), sierpinski(), list(preserving.values()), preserving)


def test_point_recovery_compatibility_exhaustive():
    """tau(x) lands in iso(U) exactly when x is in U, for every recovered x."""
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            bx = [s for s in t.regular_opens() if s]
            if not basis_oracle(t, bx):
                continue
            for y in enumerate_dense_subsets(t):
                emb = DenseEmbedding(t, y)
                by = [s for s in emb.sub.regular_opens() if s]
                if not basis_oracle(emb.sub, by):
                    continue
                w = restriction_isomorphism(emb)
                iso = {u: w.apply(u) for u in bx}
                ph = point_recovery(t, bx, emb.sub, by, iso)
                for x, yy in ph.tau.items():
                    assert emb.index_map[x] == yy
                    for u in bx:
                        assert (x in u) == (yy in iso[u])


def test_subspace_homeomorphism_by_least_neighbourhoods_matches_oracle():
    # every partial bijection between 3-point class representatives
    reps = [t for t in canonical_classes(3) if t.n == 3]
    verdicts = set()
    for tx, ty in itertools.product(reps, repeat=2):
        for k in range(4):
            for xs in itertools.combinations(range(3), k):
                for ys in itertools.permutations(range(3), k):
                    tau = dict(zip(xs, ys))
                    verdict = _carries_neighbourhoods(tx, ty, tau)
                    assert verdict == subspace_homeomorphism_oracle(tx, ty, tau)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def _basis_spaces(max_n):
    """The spaces on up to ``max_n`` points whose nonempty regular opens form
    a basis by the cover test, each with that basis."""
    for n in range(1, max_n + 1):
        for t in enumerate_topologies(EnumerationSpec(n)):
            basis = [s for s in t.regular_opens() if s]
            if basis_oracle(t, basis):
                yield t, basis


def test_check_basis_matches_the_cover_test():
    # every family of opens of every space on up to 3 points
    verdicts = {True: 0, False: 0}
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            for k in range(len(t.opens) + 1):
                for family in itertools.combinations(t.opens, k):
                    try:
                        assert check_basis(t, family) == tuple(sorted(t.to_mask(b) for b in family))
                        accepted = True
                    except NotABasis:
                        accepted = False
                    assert accepted == basis_oracle(t, family)
                    verdicts[accepted] += 1
    assert verdicts[True] and verdicts[False]


def test_recovery_sets_are_the_literal_intersections():
    # every restriction iso and every automorphism-induced iso of the spaces
    # on up to 4 points whose nonempty regular opens form a basis
    cases = 0
    for t, bx in _basis_spaces(4):
        isos = []
        for y in dense_masks(t):
            emb = DenseEmbedding(t, y)
            by = [s for s in emb.sub.regular_opens() if s]
            w = restriction_isomorphism(emb)
            isos.append((emb.sub, by, {u: w.apply(u) for u in bx}))
        for perm in itertools.permutations(range(t.n)):
            if sorted(permute_mask(m, perm) for m in t.open_masks) == list(t.open_masks):
                isos.append((t, bx, {u: fs(perm[i] for i in u) for u in bx}))
        for ty, by, iso in isos:
            ph = point_recovery(t, bx, ty, by, iso)
            assert ph.recovery_x == recovery_oracle(t.n, iso, ty.n)
            assert ph.recovery_y == recovery_oracle(ty.n, {v: u for u, v in iso.items()}, t.n)
            cases += 1
    assert cases == 490


def test_dense_subspaces_of_basis_spaces_have_regular_open_bases():
    # the recovery suite filters the ambient space only; these are its
    # instances at bound 4
    count = 0
    for t, _ in _basis_spaces(4):
        for y in dense_masks(t):
            sub = DenseEmbedding(t, y).sub
            by = [s for s in sub.regular_opens() if s]
            assert basis_oracle(sub, by)
            check_basis(sub, by)
            count += 1
    assert count == 245
