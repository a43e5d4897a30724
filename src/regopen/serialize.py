"""JSON interchange formats and DOT export.

Space format:   {"n": int, "opens": [[indices...], ...], "labels": [str]?}
Lattice format: {"elements": int, "leq": [[i, j], ...], "gg": [[i, j], ...]?,
                 "payloads": [[indices...], ...]?}

Opens and payloads are arrays of sorted unique indices. Spaces are written,
and read with validation; lattices are written, not read. Serialization is
canonical (sorted keys, fixed separators, stable element ordering) so
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json

from .errors import MalformedSpace
from .lattice import FiniteLattice, PairRelation
from .topology import Topology, set_of


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _int_lists(value) -> bool:
    """Whether ``value`` is a list of lists of ints (bools refused)."""
    return isinstance(value, list) and all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in value
    )


# -- spaces -------------------------------------------------------------------


def space_to_dict(t: Topology) -> dict:
    return {"n": t.n, "opens": [sorted(set_of(m)) for m in t.open_masks]}


def space_from_dict(d: dict) -> Topology:
    """Validate a space document and build its topology; MalformedSpace if it is not one."""
    if not isinstance(d, dict) or "n" not in d or "opens" not in d:
        raise MalformedSpace("a space is a JSON object with the keys 'n' and 'opens'")
    n, opens, labels = d["n"], d["opens"], d.get("labels")
    if type(n) is not int:  # bool is an int subclass and is refused here
        raise MalformedSpace("'n' must be an integer")
    if not _int_lists(opens):
        raise MalformedSpace("'opens' must be a list of lists of point indices")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise MalformedSpace("'labels' must have one entry per point")
    return Topology(n, opens)  # checks n before it encodes any open


# -- lattices -----------------------------------------------------------------


def lattice_to_dict(l: FiniteLattice, gg: PairRelation | None = None) -> dict:
    d = {
        "elements": l.m,
        "leq": sorted([i, j] for i in range(l.m) for j in range(l.m) if i != j and l.leq(i, j)),
    }
    if gg is not None:
        d["gg"] = sorted([f, g] for f, g in gg)
    if l.payload_masks is not None:
        d["payloads"] = [sorted(set_of(m)) for m in l.payload_masks]
    return d


# -- DOT ----------------------------------------------------------------------


def _node_label(l: FiniteLattice, i: int) -> str:
    if l.payload_masks is not None:
        return "{" + ",".join(map(str, sorted(set_of(l.payload_masks[i])))) + "}"
    return str(i)


def lattice_to_dot(l: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram: covering edges only, atoms annotated."""
    atoms = set(l.atoms())
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(l.m):
        attrs = [f'label="{_node_label(l, i)}"']
        if i in atoms:
            attrs.append("peripheries=2")
            attrs.append('xlabel="atom"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for i, j in sorted(l.covers()):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
