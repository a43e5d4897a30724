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
regularize: ``restriction_maps`` builds the trace and lift maps, each in
one comprehension over the target lattice's index, and
``restriction_isomorphism`` and the ux0 suite both call it, the one with
``Topology.regularize_mask`` for one embedding, the other with the space's
reg table for all of a space's dense sets. ``DenseEmbedding`` reads the rows
one set at a time and builds its own subspace, which a verify run looks up
by ``subspace_key`` instead. The kernels ``separations_failing`` and
``traces_losing_closure`` read the space's cl and reg tables, which their
caller builds once per space.

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
    subspace indices, are ``ambient.subspace(subset)``; ``points`` lists
    ambient points in subspace-index order. The trace and the lift read the
    rows of Y, which ``dense_rows`` keeps per Y.
    """

    __slots__ = ("ambient", "sub", "index_map", "points", "_mask", "_lift", "_trace")

    def __init__(self, ambient: Topology, subset: Iterable[int] | int):
        mask = ambient.to_mask(subset)
        if ambient.closure_mask(mask) != ambient.full_mask:
            raise NotDense(f"{sorted(set_of(mask))} is not dense in the ambient space")
        self.ambient = ambient
        self.points, self._lift, self._trace = dense_rows(mask)
        self.sub, self.index_map = ambient.subspace(mask)
        self._mask = mask

    def compress(self, ambient_mask: int) -> int:
        """The trace U & Y of an ambient set, as a subspace mask."""
        return self._trace[ambient_mask & self._mask]

    def lift(self, sub_mask: int) -> int:
        """int(cl(V)) upstairs of a subspace set V."""
        return self.ambient.regularize_mask(self._lift[sub_mask])


# Holds the rows of every mask on up to 6 points (63 nonempty masks); the
# rows of a 16-point mask have 65536 entries each.
@functools.lru_cache(maxsize=64)
def dense_rows(mask: int) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """The points of ``mask`` ascending, its lift row and its trace row.

    The lift row lists the submasks of Y = ``mask`` in ascending order; the
    i-th of them holds the j-th point of Y exactly when bit j of i is set,
    so it is subspace mask i placed in the ambient space. The trace row
    sends each submask to its index there, so the trace of an ambient set m
    on Y is ``trace[m & Y]``. Shared between embeddings: read, never write.
    """
    lift = tuple(submasks(mask))
    return tuple(iter_bits(mask)), lift, {s: i for i, s in enumerate(lift)}


def subspace_key(ambient: Topology, mask: int) -> tuple[int, ...]:
    """The least neighbourhoods of the subspace of ``ambient`` on the
    nonempty ``mask``, which determine it: that of y is the trace of U_y
    on Y, re-indexed."""
    points, _, trace = dense_rows(mask)
    nbhd = ambient.min_nbhd_masks
    return tuple([trace[nbhd[p] & mask] for p in points])


def restrict_regular(e: DenseEmbedding, u: Iterable[int]) -> PointSet:
    """Trace a regular open of the ambient space on the dense subspace.

    The result is verified to be regular open down there, which is the
    well-definedness half of the restriction-isomorphism statement.
    """
    mask = e.ambient.to_mask(u)
    if not e.ambient.is_regular_open_mask(mask):
        raise NotRegularOpen(f"{sorted(set_of(mask))} is not regular open in the ambient space")
    traced = e.compress(mask)
    if not e.sub.is_regular_open_mask(traced):
        raise VerificationError(
            "trace of a regular open is not regular open in the subspace", sorted(set_of(mask))
        )
    return set_of(traced)


def extend_regular(e: DenseEmbedding, v: Iterable[int]) -> PointSet:
    """Send a regular open of the subspace to int(cl(.)) upstairs."""
    sub_mask = e.sub.to_mask(v)
    if not e.sub.is_regular_open_mask(sub_mask):
        raise NotRegularOpen(f"{sorted(set_of(sub_mask))} is not regular open in the subspace")
    return set_of(e.lift(sub_mask))


class LatticeIsoWitness:
    """A checked order isomorphism between two regular-open lattices.

    Construction verifies that forward and backward are mutually inverse
    bijections preserving order in both directions; a failure names the
    offending element(s) by their sorted point sets.
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

    The maps come from ``restriction_maps``, which raises VerificationError
    naming a regular open whose image is not regular open on the other
    side; LatticeIsoWitness then checks that the two maps are mutually
    inverse and preserve order. A correct build never fails.
    """
    up, down = regular_open_lattice(e.ambient), regular_open_lattice(e.sub)
    return LatticeIsoWitness(up, down, *restriction_maps(up, down, e._mask, e.ambient.regularize_mask))


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
    up: RegularOpenLattice, down: RegularOpenLattice, y: int, reg: Callable[[int], int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward maps of ``restriction_isomorphism`` onto the
    dense mask Y = ``y``, as element indices, between ``up``, the lattice of
    the ambient space, and ``down``, that of its subspace on Y. The trace of
    U is read from Y's trace row, and the lift of V is ``reg``, the ambient
    space's regularize, at V's entry in Y's lift row. VerificationError
    names a regular open whose image is not regular open on the other side."""
    _, lift, trace = dense_rows(y)
    up_index, down_index = up.index_of_mask, down.index_of_mask
    try:
        forward = tuple([down_index[trace[u & y]] for u in up.payload_masks])
    except KeyError:
        forward = _map_elements(up, lambda u: trace[u & y], down, _TRACE_MISSED)
    try:
        backward = tuple([up_index[reg(lift[v])] for v in down.payload_masks])
    except KeyError:
        backward = _map_elements(down, lambda v: reg(lift[v]), up, _LIFT_MISSED)
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
    return not traces_losing_closure(t.closure_table(), [(ymask, umask)])


def traces_losing_closure(cl: Sequence[int], pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The positions, ascending, of the (Y, U) in ``pairs`` with
    cl(U & Y) != cl(U): the density kernel, for masks Y already known dense
    and U already known open. Both closures are read from ``cl``, the
    closure table of the space."""
    return [i for i, (y, u) in enumerate(pairs) if cl[u & y] != cl[u]]


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
    message it raises. It checks the same conditions, reading cl and reg
    from ``cl`` and ``reg``, the tables of ``t``, for all the pairs."""
    is_open, cl_of, reg_of = t._open_set.__contains__, cl.__getitem__, reg.__getitem__
    failed = []
    for pos, (u, v) in enumerate(pairs):
        error = _separation_error(u, v, is_open, cl_of, reg_of)
        if error is not None:
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
    perm = [core_map[i] for i in range(zx.n)]
    if sorted(perm) != list(range(zy.n)):
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
    member that is not open or a point whose U_x is not a member.
    """
    members = {t.to_mask(b) for b in basis}
    masks = tuple(sorted(members))
    for b in masks:
        if not t.is_open_mask(b):
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
