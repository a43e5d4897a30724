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

Every map between regular-open lattices here is built from the one trace and
the one lift of ``DenseEmbedding``, on lattices taken from one source.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

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

    ``index_map`` sends ambient points of the subset to subspace indices;
    ``points`` lists ambient points in subspace-index order. The subspace is
    taken from ``spaces``, known spaces keyed by least neighbourhoods, when
    it is there, else built: the least neighbourhood of y in the subspace on
    Y is the trace of U_y on Y, re-indexed, and these determine it. The trace
    and the lift read the rows of Y, which ``dense_rows`` keeps per Y.
    """

    __slots__ = ("ambient", "sub", "index_map", "points", "_mask", "_lift", "_trace")

    def __init__(
        self,
        ambient: Topology,
        subset: Iterable[int] | int,
        spaces: Mapping[tuple[int, ...], Topology] | None = None,
    ):
        mask = ambient.to_mask(subset)
        if ambient.closure_mask(mask) != ambient.full_mask:
            raise NotDense(f"{sorted(set_of(mask))} is not dense in the ambient space")
        self.ambient = ambient
        self.points, self._lift, self._trace = dense_rows(mask)
        self.index_map = {p: i for i, p in enumerate(self.points)}
        self._mask = mask
        nbhd, trace = ambient.min_nbhd_masks, self._trace
        key = tuple([trace[nbhd[p] & mask] for p in self.points])
        self.sub = (spaces or {}).get(key) or ambient.subspace(mask)[0]

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
        # the up-set of the image (its images are distinct, so the sum is
        # their union). A failing row is re-scanned for its first witness.
        for i in range(source.m):
            fi = forward[i]
            if sum(1 << forward[j] for j in iter_bits(source.up[i])) == target.up[fi]:
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


def restriction_isomorphism(e: DenseEmbedding, lattice=regular_open_lattice) -> LatticeIsoWitness:
    """Verify that U -> U & Y and V -> int(cl(V)) are mutually inverse
    order isomorphisms between the regular opens upstairs and downstairs.

    ``lattice`` maps a space to its regular-open lattice; a caller that
    keeps one lattice per space passes its lookup. VerificationError names a
    regular open whose image is not regular open on the other side;
    LatticeIsoWitness then checks that the two maps are mutually inverse and
    preserve order. A correct build never fails.
    """
    up, down = lattice(e.ambient), lattice(e.sub)
    forward = _map_elements(
        up, e.compress, down, "trace of a regular open is not regular open in the subspace"
    )
    backward = _map_elements(
        down, e.lift, up, "extension of a regular open is not regular open upstairs"
    )
    return LatticeIsoWitness(up, down, forward, backward)


def _map_elements(source, image, target, message: str) -> tuple[int, ...]:
    """The index in lattice ``target`` of ``image`` of each element of lattice
    ``source``; VerificationError(message) names the first miss by its points."""
    index = target.index_of_mask
    try:
        return tuple([index[image(mask)] for mask in source.payload_masks])
    except KeyError:
        miss = next(mask for mask in source.payload_masks if image(mask) not in index)
        raise VerificationError(message, sorted(set_of(miss))) from None


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
    return not traces_losing_closure(t, [(ymask, umask)])


def traces_losing_closure(t: Topology, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The positions, ascending, of the (Y, U) in ``pairs`` with
    cl(U & Y) != cl(U): the density kernel, for masks Y already known dense
    and U already known open. Both closures are read from one table of cl
    over all 2^n subsets of ``t``."""
    cl = t.closure_table()
    return [i for i, (y, u) in enumerate(pairs) if cl[u & y] != cl[u]]


def separating_witness(t: Topology, u: Iterable[int], v: Iterable[int]) -> PointSet:
    """For regular opens with U not contained in V, return W = U - cl(V).

    The result is verified nonempty, regular open, contained in U and
    disjoint from V. Raises ContainmentHolds when U is contained in V (the
    hypothesis fails, so no witness is owed).
    """
    umask = t.to_mask(u)
    vmask = t.to_mask(v)
    for name, mask in (("U", umask), ("V", vmask)):
        if not t.is_regular_open_mask(mask):
            raise NotRegularOpen(f"{name}={sorted(set_of(mask))} is not regular open")
    if umask & ~vmask == 0:
        raise ContainmentHolds("U is contained in V; no separating witness exists")
    w = umask & (t.full_mask ^ t.closure_mask(vmask))
    if w == 0:
        raise VerificationError("separating witness is empty", (sorted(set_of(umask)), sorted(set_of(vmask))))
    if not t.is_regular_open_mask(w):
        raise VerificationError("separating witness is not regular open", sorted(set_of(w)))
    if w & ~umask or w & vmask:
        raise VerificationError("separating witness violates containment/disjointness", sorted(set_of(w)))
    return set_of(w)


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
    core = _map_elements(
        to_x0.target, lambda m: permute_mask(m, perm), to_y0.target, "core map left the regular opens"
    )
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
    its y. The compatibility tau(x) in iso(U) iff x in U is verified for
    every basis member and every recovered point, and tau is verified to be
    a homeomorphism between the subspaces on X0 and Y0.
    """
    bx_masks = check_basis(tx, bx)
    by_masks = check_basis(ty, by)
    iso_masks = {tx.to_mask(u): ty.to_mask(v) for u, v in iso.items()}
    if sorted(iso_masks) != list(bx_masks) or sorted(iso_masks.values()) != list(by_masks):
        raise NotABijection("iso must be a bijection between the two bases")
    for u1, u2 in ((a, b) for a in bx_masks for b in bx_masks):
        if (u1 & u2 == u1) != (iso_masks[u1] & iso_masks[u2] == iso_masks[u1]):
            raise NotInclusionPreserving(set_of(u1), set_of(u2))
    inv_masks = {v: u for u, v in iso_masks.items()}

    rx = [iso_masks[u] for u in tx.min_nbhd_masks]
    ry = [inv_masks[v] for v in ty.min_nbhd_masks]

    tau: dict[int, int] = {}
    for x in range(tx.n):
        if rx[x].bit_count() == 1:
            y = rx[x].bit_length() - 1
            if ry[y] == 1 << x:
                tau[x] = y

    for u in bx_masks:
        for x, y in tau.items():
            if bool(u >> x & 1) != bool(iso_masks[u] >> y & 1):
                raise VerificationError(
                    "recovered correspondence breaks basis compatibility",
                    (sorted(set_of(u)), x),
                )
    if not _carries_neighbourhoods(tx, ty, tau):
        raise VerificationError("recovered correspondence is not a subspace homeomorphism")

    return PartialHomeomorphism(
        frozenset(tau),
        frozenset(tau.values()),
        tau,
        {x: set_of(rx[x]) for x in range(tx.n)},
        {y: set_of(ry[y]) for y in range(ty.n)},
    )

