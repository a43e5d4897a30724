"""Stone representation of a finite Boolean algebra of regular opens.

At finite scale every ultrafilter of a Boolean algebra is principal at an
atom, so the Stone space is the discrete space on the atoms and the clopen
(= regular open) algebra of that space is the full powerset of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotBoolean
from .lattice import RegularOpenLattice
from .topology import PointSet, Topology, discrete

# One validated discrete space per atom count; MAX_OPENS keeps that to k <= 10.
_discrete = lru_cache(maxsize=None)(discrete)


@dataclass(frozen=True)
class StoneSpace:
    """Discrete space on the atoms of a Boolean algebra, plus the
    element -> clopen-set isomorphism witnessing the duality."""

    space: Topology
    atoms: tuple[int, ...]
    to_clopen: tuple[PointSet, ...]


def stone_space(b: RegularOpenLattice) -> StoneSpace:
    """Build the Stone space of ``b`` and verify the duality isomorphism.

    The returned map sends each element to the set of atoms below it. A
    finite lattice is Boolean exactly when this map is an order isomorphism
    onto the full powerset of atoms (Stone, Trans. AMS 40, 1936), so that is
    the one Boolean test made here: NotBoolean unless the map is a bijection
    onto the powerset that preserves order both ways.
    """
    atoms = b.atoms()
    positions = {a: i for i, a in enumerate(atoms)}
    to_clopen = tuple(
        frozenset(positions[a] for a in atoms if b.leq(a, u)) for u in range(b.m)
    )
    if len(set(to_clopen)) != b.m or b.m != 1 << len(atoms):
        raise NotBoolean("atom map is not a bijection onto the powerset")
    for u in range(b.m):
        for v in range(b.m):
            if b.leq(u, v) != (to_clopen[u] <= to_clopen[v]):
                raise NotBoolean(f"atom map does not preserve order at {(u, v)}")
    return StoneSpace(_discrete(len(atoms)), atoms, to_clopen)
