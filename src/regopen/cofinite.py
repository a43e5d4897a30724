"""Exact set algebra over an infinite symbolic ground set, under the
cofinite topology.

A set is represented by a finite support plus a kind flag: FINITE means the
set equals its support, COFINITE means it is the complement of its support.
The ground set itself is never materialized, so the same engine also models
the cocountable topology on an uncountable ground set (the support then
reads as the countable exceptional set); the two cases are symbolically
identical and this module deliberately exposes a single implementation.

Opens are the empty set and the cofinite sets. Every nonempty open is dense,
so the only regular opens are the empty set and the whole space.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import MalformedSpace, VerificationError
from .record import Record

FINITE = "finite"
COFINITE = "cofinite"


class SymbolicSet(Record):
    """A set of the symbolic ground set. The constructor validates its
    arguments; the set operations build their results through ``_trusted``."""

    __slots__ = ("kind", "support")

    def __init__(self, kind: str, support: frozenset[int]):
        if kind not in (FINITE, COFINITE):
            raise MalformedSpace(f"kind must be {FINITE!r} or {COFINITE!r}")
        if type(support) is not frozenset:
            try:
                support = frozenset(support)
            except TypeError:
                raise MalformedSpace(f"support must be a set of labels, not {support!r}") from None
        if not all(type(x) is int and x >= 0 for x in support):
            raise MalformedSpace("support labels must be non-negative integers")
        self._set(kind, support)

    def __repr__(self):
        body = "{" + ",".join(map(str, sorted(self.support))) + "}"
        return f"{self.kind.capitalize()}({body})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "support": sorted(self.support)}


_new = object.__new__
_set_kind = SymbolicSet.kind.__set__
_set_support = SymbolicSet.support.__set__


def _trusted(kind: str, support: frozenset[int]) -> SymbolicSet:
    """A SymbolicSet built without the constructor's checks. The set
    operations alone call it: their results' kinds and supports come from
    valid sets, and the cofinite suite's window check builds 8256 of them."""
    s = _new(SymbolicSet)
    _set_kind(s, kind)
    _set_support(s, support)
    return s


def finite(labels: Iterable[int] = ()) -> SymbolicSet:
    return SymbolicSet(FINITE, frozenset(labels))


def cofinite(labels: Iterable[int] = ()) -> SymbolicSet:
    return SymbolicSet(COFINITE, frozenset(labels))


EMPTY = finite()
FULL = cofinite()
# the opens whose regularization ``regular_opens`` traces: every one is open
_SAMPLE_OPENS = (EMPTY, FULL, cofinite({0}), cofinite({0, 1}), cofinite(range(5)))


def complement(a: SymbolicSet) -> SymbolicSet:
    return _trusted(COFINITE if a.kind == FINITE else FINITE, a.support)


def union(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    if a.kind == FINITE and b.kind == FINITE:
        return _trusted(FINITE, a.support | b.support)
    if a.kind == COFINITE and b.kind == COFINITE:
        return _trusted(COFINITE, a.support & b.support)
    fin, cof = (a, b) if a.kind == FINITE else (b, a)
    return _trusted(COFINITE, cof.support - fin.support)


def intersect(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    if a.kind == FINITE and b.kind == FINITE:
        return _trusted(FINITE, a.support & b.support)
    if a.kind == COFINITE and b.kind == COFINITE:
        return _trusted(COFINITE, a.support | b.support)
    fin, cof = (a, b) if a.kind == FINITE else (b, a)
    return _trusted(FINITE, fin.support - cof.support)


def is_subset(a: SymbolicSet, b: SymbolicSet) -> bool:
    """Inclusion over the symbolic encoding.

    Finite(F) <= Finite(G) iff F <= G; Finite(F) <= Cofinite(G) iff F and G
    are disjoint; Cofinite(F) <= Finite(G) never (the ground set is
    infinite); Cofinite(F) <= Cofinite(G) iff G <= F.
    """
    if a.kind == FINITE and b.kind == FINITE:
        return a.support <= b.support
    if a.kind == FINITE and b.kind == COFINITE:
        return not (a.support & b.support)
    if a.kind == COFINITE and b.kind == FINITE:
        return False
    return b.support <= a.support


def is_open(a: SymbolicSet) -> bool:
    return a.kind == COFINITE or not a.support


def interior(a: SymbolicSet) -> SymbolicSet:
    # No nonempty open fits inside a finite set; every cofinite set is open.
    if a.kind == FINITE:
        return EMPTY
    return a


def closure(a: SymbolicSet) -> SymbolicSet:
    # Finite sets are closed; any cofinite set is infinite, hence dense.
    if a.kind == FINITE:
        return a
    return FULL


def regularize(a: SymbolicSet) -> SymbolicSet:
    return interior(closure(a))


def is_regular_open(a: SymbolicSet) -> bool:
    return is_open(a) and regularize(a) == a


def is_dense(a: SymbolicSet) -> bool:
    return closure(a) == FULL


class RegularizationTrace(NamedTuple):
    queried: SymbolicSet
    closure: SymbolicSet
    regularization: SymbolicSet
    regular: bool


def trace_regularize(a: SymbolicSet) -> RegularizationTrace:
    reg = regularize(a)
    return RegularizationTrace(a, closure(a), reg, is_open(a) and reg == a)


def regular_opens() -> tuple[tuple[SymbolicSet, SymbolicSet], tuple[RegularizationTrace, ...]]:
    """The two-element regular-open family, plus a regularization trace.

    The trace shows, for each open of ``_SAMPLE_OPENS``, its closure and
    regularization: every nonempty proper open (a cofinite set with
    nonempty support) regularizes to the full set and is therefore not
    regular.
    """
    traces = tuple(map(trace_regularize, _SAMPLE_OPENS))
    for tr in traces:
        if tr.regular != (tr.queried in (EMPTY, FULL)):
            raise VerificationError(f"regularity of {tr.queried!r} disagrees with the two-element family")
    return (EMPTY, FULL), traces
