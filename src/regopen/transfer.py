"""Transfer of regular-open structure across dense subspaces.

The central facts made executable here, each verified instance by instance:

* restriction U -> U & Y is a lattice isomorphism from the regular opens of
  a space onto those of any dense subspace, with inverse V -> int(cl(V));
* two spaces densely containing homeomorphic copies of a common core have
  isomorphic regular-open lattices: one restriction, the core relabeling,
  and the inverse of the other restriction;
* an inclusion-preserving bijection between bases recovers a partial point
  correspondence: each point maps to the intersection of the images of its
  basic neighborhoods, and the points with mutually-singleton recovery sets
  form subspaces on which the correspondence is a homeomorphism.

Every map between regular-open lattices here is built from the trace and
lift rows of a dense set Y, which ``dense_rows`` keeps, and the space's
regularize as a table: ``restriction_maps`` takes Y's rows and builds the
trace and lift maps, each in one comprehension over the target lattice's
index. ``restriction_isomorphism`` calls it with the regularize of the
lifts its one embedding needs, and the ux0 suite with the space's reg
table, reading Y's rows once for the maps and ``subspace_key``. No other
code reads the trace and lift rows: ``DenseEmbedding`` only checks density
and builds its own subspace, which a verify run looks up by
``subspace_key`` instead. The kernels ``separations_failing`` and ``traces_losing_closure`` read the
space's cl and reg tables, which their caller builds once per space. Each
tests a passing instance inline and does more only to name a failure: the
density kernel compares one list of closures per Y, and the separation
kernel asks ``_separation_error`` for a failing pair's message.

``point_recovery`` validates both bases with ``check_basis`` and the iso's
points, then calls ``recover_tau``, which checks the iso on masks and finds
tau; the recovery suite calls ``recover_tau`` itself, with bases it has
checked once.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
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
from .lattice import RegularOpenLattice, regular_open_lattice
from .topology import (
    PointSet,
    Topology,
    _carries_neighbourhoods,
    iter_bits,
    permute_mask,
    set_of,
    submasks,
)


class DenseEmbedding:
    """A dense subset of an ambient space together with its subspace.

    ``sub`` and ``index_map``, which sends ambient points of the subset to
    subspace indices, are ``ambient.subspace(subset)``.
    ``restriction_isomorphism`` gives the maps between the regular opens of
    the two.
    """

    __slots__ = ("ambient", "sub", "index_map", "_mask")

    def __init__(self, ambient: Topology, subset: Iterable[int] | int):
        mask = ambient.to_mask(subset)
        if ambient.closure_mask(mask) != ambient.full_mask:
            raise NotDense(f"{sorted(set_of(mask))} is not dense in the ambient space")
        self.ambient = ambient
        self.sub, self.index_map = ambient.subspace(mask)
        self._mask = mask


DenseRows = tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]


# Holds the rows of every mask on up to 6 points (63 nonempty masks); the
# rows of a 16-point mask have 65536 entries each.
@functools.lru_cache(maxsize=64)
def dense_rows(mask: int) -> DenseRows:
    """The points of ``mask`` ascending, its lift row and its trace row.

    The lift row lists the submasks of Y = ``mask`` in ascending order; the
    i-th of them holds the j-th point of Y exactly when bit j of i is set,
    so it is subspace mask i placed in the ambient space. The trace row
    sends each submask to its index there, so the trace of an ambient set m
    on Y is ``trace[m & Y]``. Shared between embeddings: read, never write.
    """
    lift = tuple(submasks(mask))
    return tuple(iter_bits(mask)), lift, {s: i for i, s in enumerate(lift)}


def subspace_key(ambient: Topology, mask: int, rows: DenseRows) -> tuple[int, ...]:
    """The least neighbourhoods of the subspace of ``ambient`` on the
    nonempty ``mask``, which determine it: that of y is the trace of U_y
    on Y, re-indexed, read from ``rows``, Y's ``dense_rows``."""
    points, _, trace = rows
    nbhd = ambient.min_nbhd_masks
    return tuple([trace[nbhd[p] & mask] for p in points])


class LatticeIsoWitness:
    """A checked order isomorphism between two regular-open lattices.

    Construction verifies that forward and backward are mutually inverse
    bijections preserving order in both directions; a failure names the
    offending element(s) by their sorted point sets. Maps that are not each
    m indices of the m elements raise NotABijection first.
    """

    __slots__ = ("source", "target", "forward", "backward")

    def __init__(
        self,
        source: RegularOpenLattice,
        target: RegularOpenLattice,
        forward: tuple[int, ...],
        backward: tuple[int, ...],
    ):
        if source.m != target.m:
            raise CompositionNotIso("lattice sizes differ", (source.m, target.m))
        m = source.m
        if not len(forward) == len(backward) == m or not all(
            type(i) is int and 0 <= i < m for i in (*forward, *backward)
        ):
            raise NotABijection(f"forward and backward must each be {m} element indices in range({m})")
        # With equal sizes, backward(forward(i)) == i for every i makes forward
        # a bijection with inverse backward, so no second round trip is owed.
        for i in range(source.m):
            if backward[forward[i]] != i:
                raise CompositionNotIdentity(
                    "backward(forward(.)) moved a regular open", sorted(source.element(i))
                )
        # A bijection preserves order both ways iff it maps each up-set onto
        # the up-set of the image; the image of a row is the union of the
        # bits of its members' images. A failing row is re-scanned for its
        # first witness.
        bits = [1 << f for f in forward]
        for i, row in enumerate(source.up):
            fi, image = forward[i], 0
            while row:
                low = row & -row
                image |= bits[low.bit_length() - 1]
                row ^= low
            if image == target.up[fi]:
                continue
            j = next(
                j for j in range(source.m) if source.leq(i, j) != target.leq(fi, forward[j])
            )
            raise CompositionNotIso(
                "order not preserved", (sorted(source.element(i)), sorted(source.element(j)))
            )
        self.source = source
        self.target = target
        self.forward = forward
        self.backward = backward

    def apply(self, u: Iterable[int]) -> PointSet:
        mask = self.source.topology.to_mask(u)
        if mask not in self.source.index_of_mask:
            raise NotRegularOpen(f"{sorted(set_of(mask))} is not regular open in the source space")
        return self.target.element(self.forward[self.source.index_of_mask[mask]])


def restriction_isomorphism(e: DenseEmbedding) -> LatticeIsoWitness:
    """Verify that U -> U & Y and V -> int(cl(V)) are mutually inverse
    order isomorphisms between the regular opens upstairs and downstairs.

    The maps come from ``restriction_maps``, with Y's rows and the ambient
    regularize of the lift of each regular open downstairs; it raises
    VerificationError naming a regular open whose image is not regular
    open on the other side. LatticeIsoWitness then checks that the two
    maps are mutually inverse and preserve order. A correct build never
    fails.
    """
    up, down = regular_open_lattice(e.ambient), regular_open_lattice(e.sub)
    rows = dense_rows(e._mask)
    lift, regularize = rows[1], e.ambient.regularize_mask
    reg = {lift[v]: regularize(lift[v]) for v in down.payload_masks}
    return LatticeIsoWitness(up, down, *restriction_maps(up, down, e._mask, rows, reg))


_TRACE_MISSED = "trace of a regular open is not regular open in the subspace"
_LIFT_MISSED = "extension of a regular open is not regular open upstairs"


def _map_elements(source, image: Callable[[int], int], target, message: str) -> tuple[int, ...]:
    """The index in lattice ``target`` of ``image`` of each element of
    lattice ``source``, in order; VerificationError(message) names the
    first element whose image is not in ``target`` by its points, mapping
    the elements again to find it."""
    index = target.index_of_mask
    try:
        return tuple([index[image(mask)] for mask in source.payload_masks])
    except KeyError:
        miss = next(mask for mask in source.payload_masks if image(mask) not in index)
        raise VerificationError(message, sorted(set_of(miss))) from None


def restriction_maps(
    up: RegularOpenLattice,
    down: RegularOpenLattice,
    y: int,
    rows: DenseRows,
    reg: Mapping[int, int] | Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward maps of ``restriction_isomorphism`` onto the
    dense mask Y = ``y``, as element indices, between ``up``, the lattice of
    the ambient space, and ``down``, that of its subspace on Y. ``rows`` are
    Y's ``dense_rows``: the trace of U is read from Y's trace row, and the
    lift of V is ``reg``, the ambient space's regularize as a table, at V's
    entry in Y's lift row. ``reg`` holds at least those entries: the ux0
    suite passes the space's reg table, ``restriction_isomorphism`` the
    entries for its one Y. VerificationError names a regular open whose
    image is not regular open on the other side."""
    _, lift, trace = rows
    up_index, down_index = up.index_of_mask, down.index_of_mask
    try:
        forward = tuple([down_index[trace[u & y]] for u in up.payload_masks])
    except KeyError:
        forward = _map_elements(up, lambda u: trace[u & y], down, _TRACE_MISSED)
    try:
        backward = tuple([up_index[reg[lift[v]]] for v in down.payload_masks])
    except KeyError:
        backward = _map_elements(down, lambda v: reg[lift[v]], up, _LIFT_MISSED)
    return forward, backward


def closure_density_check(t: Topology, y: Iterable[int], u: Iterable[int]) -> bool:
    """Compare cl(U) with cl(U & Y) for dense Y and open U.

    The equality is a theorem, so a False return is a bug detector, not an
    expected outcome. Y and U are validated, then handed to
    ``traces_losing_closure``.
    """
    ymask = t.to_mask(y)
    umask = t.to_mask(u)
    if not t.is_open_mask(umask):
        raise NotOpen(f"{sorted(set_of(umask))} is not open")
    if t.closure_mask(ymask) != t.full_mask:
        raise NotDense(f"{sorted(set_of(ymask))} is not dense")
    return not traces_losing_closure(t.closure_table(), [ymask], [umask])


def traces_losing_closure(cl: Sequence[int], ys: Sequence[int], opens: Sequence[int]) -> list[int]:
    """The positions, ascending, of the pairs (Y, U) with cl(U & Y) !=
    cl(U) among the pairs of ``ys`` × ``opens`` in row-major order, the
    pair (ys[i], opens[j]) at position i * len(opens) + j: the density
    kernel, for masks Y already known dense and U already known open. Both
    closures are read from ``cl``, the closure table of the space. Each Y
    compares its row of closures with that of the opens as one list, and
    a row that differs is scanned to name its positions."""
    closures = [cl[u] for u in opens]
    failed: list[int] = []
    for row, y in enumerate(ys):
        if [cl[u & y] for u in opens] != closures:
            start = row * len(opens)
            failed += [start + j for j, u in enumerate(opens) if cl[u & y] != closures[j]]
    return failed


def separating_witness(t: Topology, u: Iterable[int], v: Iterable[int]) -> PointSet:
    """For regular opens with U not contained in V, return W = U - cl(V).

    The result is verified nonempty, regular open, contained in U and
    disjoint from V. Raises ContainmentHolds when U is contained in V (the
    hypothesis fails, so no witness is owed).
    """
    umask = t.to_mask(u)
    vmask = t.to_mask(v)
    error = _separation_error(umask, vmask, t.is_open_mask, t.closure_mask, t.regularize_mask)
    if error is not None:
        raise error
    return set_of(umask & ~t.closure_mask(vmask))


def separations_failing(
    t: Topology, cl: Sequence[int], reg: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> list[tuple[int, str]]:
    """The separation kernel: the positions, ascending, of the (U, V) in
    ``pairs`` for which ``separating_witness`` raises, each with the
    message it raises. It tests the same conditions on each pair, reading
    cl and reg from ``cl`` and ``reg``, the tables of ``t``, and asks
    ``_separation_error`` for the message of a pair that fails them.
    Openness is a lookup in a set of ``t``'s opens, built per call, so that
    it does not go through cl: a wrong cl table passes no non-open mask."""
    opens = frozenset(t.open_masks)
    failed = []
    for pos, (u, v) in enumerate(pairs):
        if (
            u in opens and reg[u] == u and v in opens and reg[v] == v and u & ~v
            and (w := u & ~cl[v]) and w in opens and reg[w] == w and not (w & ~u or w & v)
        ):
            continue
        error = _separation_error(u, v, opens.__contains__, cl.__getitem__, reg.__getitem__)
        failed.append((pos, str(error)))
    return failed


def _separation_error(
    u: int,
    v: int,
    is_open: Callable[[int], bool],
    cl: Callable[[int], int],
    reg: Callable[[int], int],
) -> RegOpenError | None:
    """What ``separating_witness`` raises for the masks U and V, or None,
    with ``is_open``, ``cl`` and ``reg`` the space's operators on masks:
    U and V must be regular open and U not inside V, and W = U - cl(V) is
    then verified nonempty, regular open, inside U and disjoint from V."""
    if not (is_open(u) and reg(u) == u):
        return NotRegularOpen(f"U={sorted(set_of(u))} is not regular open")
    if not (is_open(v) and reg(v) == v):
        return NotRegularOpen(f"V={sorted(set_of(v))} is not regular open")
    if u & ~v == 0:
        return ContainmentHolds("U is contained in V; no separating witness exists")
    w = u & ~cl(v)
    if w == 0:
        return VerificationError("separating witness is empty", (sorted(set_of(u)), sorted(set_of(v))))
    if not (is_open(w) and reg(w) == w):
        return VerificationError("separating witness is not regular open", sorted(set_of(w)))
    if w & ~u or w & v:
        return VerificationError("separating witness violates containment/disjointness", sorted(set_of(w)))
    return None


def transfer_isomorphism(
    ex: DenseEmbedding, ey: DenseEmbedding, core_map: Mapping[int, int]
) -> LatticeIsoWitness:
    """Compose the regular-open isomorphism induced by a common dense core.

    ``core_map`` identifies the subspace of ``ex`` with the subspace of
    ``ey`` and must be a homeomorphism. Each regular open U upstairs in X is
    sent along U -> U & X0 -> core -> Y0 -> int(cl(.)): the verified
    restriction onto X0, the core relabeling, and the inverse of the
    verified restriction onto Y0. The composite is checked again as an
    order isomorphism.
    """
    zx, zy = ex.sub, ey.sub
    if zx.n != zy.n:
        raise CoresNotHomeomorphic(f"core sizes differ: {zx.n} vs {zy.n}")
    try:
        perm = [core_map[i] for i in range(zx.n)]
    except LookupError:  # the map misses a point of the core
        perm = None
    ints = perm is not None and all(type(y) is int for y in perm)  # bools and floats refused
    if not ints or len(core_map) != zx.n or sorted(perm) != list(range(zy.n)):
        raise CoresNotHomeomorphic("core map is not a bijection")
    if not _carries_neighbourhoods(zx, zy, dict(enumerate(perm))):
        raise CoresNotHomeomorphic("core map does not carry opens onto opens")

    to_x0, to_y0 = restriction_isomorphism(ex), restriction_isomorphism(ey)
    x0 = to_x0.target
    core = _map_elements(x0, lambda m: permute_mask(m, perm), to_y0.target, "core map left the regular opens")
    forward = tuple(to_y0.backward[core[k]] for k in to_x0.forward)
    backward = tuple(sorted(range(len(forward)), key=forward.__getitem__))
    return LatticeIsoWitness(to_x0.source, to_y0.source, forward, backward)


# -- point recovery from a basis isomorphism ----------------------------------


def check_basis(t: Topology, basis: Iterable[Iterable[int] | int]) -> tuple[int, ...]:
    """Validate that ``basis`` is a family of opens holding every least
    neighbourhood U_x of ``t``.

    In a finite space that is the basis property: a basic set around x
    inside U_x is U_x itself, and every open is the union of the U_x of its
    points. Returns the basis as masks, sorted. Raises NotABasis naming a
    member that is not open or a point whose U_x is not a member. Openness
    is a lookup in a set of the opens, built per call: it does not go
    through cl, and recovery runs faster than with ``is_open_mask``.
    """
    members = {t.to_mask(b) for b in basis}
    masks = tuple(sorted(members))
    opens = set(t.open_masks)
    for b in masks:
        if b not in opens:
            raise NotABasis(f"basis member {sorted(set_of(b))} is not open")
    for x, u in enumerate(t.min_nbhd_masks):
        if u not in members:
            raise NotABasis(f"least neighbourhood {sorted(set_of(u))} of point {x} is not a basis member")
    return masks


class PartialHomeomorphism:
    """Outcome of point recovery: recovery sets, the recovered point sets
    X0 and Y0, and the bijection tau between them."""

    __slots__ = ("x0", "y0", "tau", "recovery_x", "recovery_y")

    def __init__(self, x0, y0, tau, recovery_x, recovery_y):
        self.x0: PointSet = x0
        self.y0: PointSet = y0
        self.tau: dict[int, int] = tau
        self.recovery_x: dict[int, PointSet] = recovery_x
        self.recovery_y: dict[int, PointSet] = recovery_y


def point_recovery(
    tx: Topology,
    bx: Iterable[Iterable[int] | int],
    ty: Topology,
    by: Iterable[Iterable[int] | int],
    iso: Mapping[PointSet | int, PointSet | int],
) -> PartialHomeomorphism:
    """Recover a partial point correspondence from a basis isomorphism.

    For each x, the recovery set is the intersection of iso(U) over all
    basis members U containing x (and symmetrically with the inverse
    bijection on the other side). In a finite space that is iso(U_x): U_x
    is a member and lies inside every member containing x, and iso
    preserves inclusion. X0 collects the x whose recovery set is a
    singleton {y} with recovery set {x} in return; tau maps each such x to
    its y. Both bases are validated by ``check_basis``, and ``recover_tau``
    checks iso and finds tau.
    """
    bx_masks = check_basis(tx, bx)
    by_masks = check_basis(ty, by)
    iso_masks = {tx.to_mask(u): ty.to_mask(v) for u, v in iso.items()}
    tau = recover_tau(tx, bx_masks, ty, by_masks, iso_masks)
    inv_masks = {v: u for u, v in iso_masks.items()}
    return PartialHomeomorphism(
        frozenset(tau),
        frozenset(tau.values()),
        tau,
        {x: set_of(iso_masks[u]) for x, u in enumerate(tx.min_nbhd_masks)},
        {y: set_of(inv_masks[v]) for y, v in enumerate(ty.min_nbhd_masks)},
    )


def recover_tau(
    tx: Topology, bx: tuple[int, ...], ty: Topology, by: tuple[int, ...], iso: Mapping[int, int]
) -> dict[int, int]:
    """tau of ``point_recovery`` on masks: ``bx`` and ``by`` are bases of
    ``tx`` and ``ty`` as ``check_basis`` returns them, and ``iso`` sends
    masks to masks. iso is verified to be a bijection from bx onto by, so
    every mask it holds is a validated basis member, and to preserve
    inclusion both ways. tau is verified compatible, tau(x) in iso(U) iff
    x in U for every member U and recovered x, and a homeomorphism between
    the subspaces on X0 and Y0.
    """
    if sorted(iso) != list(bx) or sorted(iso.values()) != list(by):
        raise NotABijection("iso must be a bijection between the two bases")
    pairs = [(u, iso[u]) for u in bx]
    for u1, v1 in pairs:
        for u2, v2 in pairs:
            if (u1 & u2 == u1) != (v1 & v2 == v1):
                raise NotInclusionPreserving(set_of(u1), set_of(u2))
    inv = {v: u for u, v in pairs}

    rx = [iso[u] for u in tx.min_nbhd_masks]
    ry = [inv[v] for v in ty.min_nbhd_masks]

    tau: dict[int, int] = {}
    for x in range(tx.n):
        if rx[x].bit_count() == 1:
            y = rx[x].bit_length() - 1
            if ry[y] == 1 << x:
                tau[x] = y

    for u, v in pairs:
        for x, y in tau.items():
            if bool(u >> x & 1) != bool(v >> y & 1):
                raise VerificationError(
                    "recovered correspondence breaks basis compatibility",
                    (sorted(set_of(u)), x),
                )
    if not _carries_neighbourhoods(tx, ty, tau):
        raise VerificationError("recovered correspondence is not a subspace homeomorphism")
    return tau
