"""Stone representation of a finite Boolean algebra of regular opens.

At finite scale every ultrafilter of a Boolean algebra is principal at an
atom, so the Stone space is the discrete space on the atoms and the clopen
(= regular open) algebra of that space is the full powerset of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import RegularOpenLattice, boolean_atom_masks
from .topology import PointSet, Topology, discrete, set_of

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
    """Build the Stone space of ``b`` and verify the duality isomorphism,
    which sends each element to the set of atoms below it: NotBoolean, with
    the witness of ``check_boolean_algebra``'s test, unless it is an order
    isomorphism onto the powerset of the atoms. It reads the order only."""
    masks = boolean_atom_masks(b)
    atoms = b.atoms()
    return StoneSpace(_discrete(len(atoms)), atoms, tuple(map(set_of, masks)))
