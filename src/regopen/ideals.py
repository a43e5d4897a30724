"""Ideals and ultrafilters of finite powerset lattices, and the
correspondence between ideals and open subsets of a finite discrete space.

``ideals``, ``maximal_ideals``, ``ultrafilters`` and
``ideal_open_correspondence`` take a powerset size n and first ask
``enumeration.check_budget`` for the "ideals" row of ``BUDGETS``, which
refuses an n below 1 too. A brute force over candidate families is doubly
exponential, so only the principal construction below is feasible at the
larger sizes that row allows. That construction is complete: a family
closed downward and under pairwise union contains the union of all its
members, hence equals the down-set of that union. Tests cross-check it
against a literal filter over all families at small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .enumeration import check_budget
from .errors import IndexOutOfRange, NotAnIdeal, VerificationError
from .topology import PointSet


def _subsets(points: PointSet) -> list[PointSet]:
    pts = sorted(points)
    out = []
    for r in range(len(pts) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(pts, r))
    return out


@dataclass(frozen=True)
class IdealFamily:
    """A downward-closed, pairwise-union-closed family of subsets of {0..n-1}."""

    ambient: int
    members: frozenset[PointSet]

    def __post_init__(self):
        if not self.members:
            raise NotAnIdeal("an ideal is nonempty (it contains the empty set)")
        for a in self.members:
            if any(p < 0 or p >= self.ambient for p in a):
                raise IndexOutOfRange(f"member {sorted(a)} outside ambient size {self.ambient}")
            for b in self.members:
                if a | b not in self.members:
                    raise NotAnIdeal(f"not union-closed at {sorted(a)}, {sorted(b)}")
            for sub in _subsets(a):
                if sub not in self.members:
                    raise NotAnIdeal(f"not downward closed below {sorted(a)}")

    @classmethod
    def principal(cls, ambient: int, top: PointSet) -> "IdealFamily":
        return cls(ambient, frozenset(_subsets(frozenset(top))))

    @property
    def maximum(self) -> PointSet:
        return frozenset().union(*self.members)

    @property
    def proper(self) -> bool:
        return self.maximum != frozenset(range(self.ambient))

    def __le__(self, other: "IdealFamily") -> bool:
        return self.members <= other.members


@dataclass(frozen=True)
class Ultrafilter:
    """A principal ultrafilter on {0..n-1}: all sets containing one point."""

    ambient: int
    members: frozenset[PointSet]
    point: int

    def __post_init__(self):
        expected = frozenset(
            s for s in _subsets(frozenset(range(self.ambient))) if self.point in s
        )
        if self.members != expected:
            raise VerificationError("ultrafilter is not principal at its point", self.point)


def ideals(n: int) -> list[IdealFamily]:
    """Every ideal of the powerset lattice on n points, sorted by maximum.

    All ideals of a finite powerset are principal (see module docstring), so
    there are exactly 2**n of them.
    """
    check_budget("ideals", n)
    ground = frozenset(range(n))
    return [IdealFamily.principal(n, s) for s in _subsets(ground)]


def maximal_ideals(n: int) -> list[IdealFamily]:
    """Maximal proper ideals: the down-sets of the n co-singletons."""
    check_budget("ideals", n)
    ground = frozenset(range(n))
    return [IdealFamily.principal(n, ground - {x}) for x in range(n)]


def ultrafilters(n: int) -> list[Ultrafilter]:
    """Complements of the maximal ideals; all principal at finite scale."""
    check_budget("ideals", n)
    all_sets = frozenset(_subsets(frozenset(range(n))))
    out = []
    for x, ideal in enumerate(maximal_ideals(n)):
        members = all_sets - ideal.members
        out.append(Ultrafilter(n, members, x))
    return out


@dataclass(frozen=True)
class IdealOpenCorrespondence:
    """The verified inclusion-preserving bijection W -> {I : I subset of W}
    between the opens of the discrete space on n points and the ideals of
    its powerset lattice."""

    ambient: int
    pairs: tuple[tuple[PointSet, IdealFamily], ...]


def ideal_open_correspondence(n: int) -> IdealOpenCorrespondence:
    """Build and verify the correspondence for the discrete space on n points.

    Verified claims: the map is a bijection, inverse to taking unions of
    members; it preserves inclusion in both directions over all pairs; and
    it matches maximal proper ideals with the maximal proper opens (the
    complements of singletons).
    """
    check_budget("ideals", n)
    ground = frozenset(range(n))
    opens = _subsets(ground)
    pairs = tuple((w, IdealFamily.principal(n, w)) for w in opens)

    seen = set()
    for w, ideal in pairs:
        if ideal.members in seen:
            raise VerificationError("correspondence is not injective", sorted(w))
        seen.add(ideal.members)
        recovered = frozenset().union(*ideal.members)
        if recovered != w:
            raise VerificationError("union of ideal members does not recover the open", sorted(w))
    for (w, iw), (v, iv) in itertools.product(pairs, repeat=2):
        if (w <= v) != (iw.members <= iv.members):
            raise VerificationError(
                "inclusion not preserved both ways", (sorted(w), sorted(v))
            )
    for w, ideal in pairs:
        is_max_open = len(w) == n - 1
        is_max_ideal = ideal.proper and not any(
            other.proper and ideal.members < other.members for _, other in pairs
        )
        if is_max_open != is_max_ideal:
            raise VerificationError("maximal opens do not match maximal ideals", sorted(w))
    return IdealOpenCorrespondence(n, pairs)
