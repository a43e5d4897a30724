"""Exception hierarchy shared by all regopen modules.

Input-validation errors subclass ValueError so callers can catch them
generically; ``VerificationError`` and its children signal that a law the
library promises to uphold was found violated (which a correct build never
triggers -- the exhaustive suites exist to demonstrate exactly that).
"""


class RegOpenError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(RegOpenError, ValueError):
    """A point index falls outside the ambient ground set {0..n-1}, or an
    element index outside its lattice."""


class MissingEmptyOrFull(RegOpenError, ValueError):
    """A candidate open family lacks the empty set or the full ground set."""


class NotClosedUnderUnion(RegOpenError, ValueError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"family lacks the union of {sorted(a)} and {sorted(b)}")


class NotClosedUnderIntersection(RegOpenError, ValueError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"family lacks the intersection of {sorted(a)} and {sorted(b)}")


class MalformedSpace(RegOpenError, ValueError):
    """A space or set description is malformed: no points, a missing key, a
    wrong type or kind, a negative label, or a token that names neither a
    fixture nor a readable file."""


class EmptySubspace(RegOpenError, ValueError):
    """Subspace construction requires a nonempty point set."""


class SizeMismatch(RegOpenError, ValueError):
    """Two structures that must share a ground-set size do not."""


class NotAMetric(RegOpenError, ValueError):
    """A distance matrix violates one of the metric axioms."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"metric axiom {axiom!r} fails at {witness}")


class NotALattice(RegOpenError, ValueError):
    """An order relation fails to be a lattice (missing inf/sup or bad
    order), or a lattice is asked for point sets it does not carry."""


class NotAnIdeal(RegOpenError, ValueError):
    """A family of sets is empty, not union-closed or not downward closed."""


class NotOpen(RegOpenError, ValueError):
    """An argument required to be open is not."""


class NotDense(RegOpenError, ValueError):
    """An argument required to be dense is not."""


class NotRegularOpen(RegOpenError, ValueError):
    """An argument required to be regular open is not."""


class ContainmentHolds(RegOpenError, ValueError):
    """separating_witness was called with U contained in V: no witness is owed."""


class NotABasis(RegOpenError, ValueError):
    """A family fails the basis property: a member is not open, or some
    point's least neighbourhood is not a member."""


class NotInclusionPreserving(RegOpenError, ValueError):
    def __init__(self, u, v):
        self.witness = (u, v)
        super().__init__(
            f"bijection does not preserve inclusion on the pair {sorted(u)}, {sorted(v)}"
        )


class NotABijection(RegOpenError, ValueError):
    """A map required to be a bijection is not one."""


class NotBoolean(RegOpenError, ValueError):
    """A lattice expected to be a Boolean algebra fails a Boolean law."""


class SizeGuardExceeded(RegOpenError, ValueError):
    """A combinatorial guard (ground-set size limit) was exceeded."""


class BadEnumerationSpec(RegOpenError, ValueError):
    """A run was asked for fewer than one point (``check_budget`` refuses it
    for every entry point), or an enumeration for a negative limit or an
    unknown mode."""


class UnknownSuite(RegOpenError, ValueError):
    """run_suite was asked for a suite name that does not exist."""


class VerificationError(RegOpenError):
    """A verified mathematical claim failed; carries the counterexample."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}: {witness}")


class CompositionNotIdentity(VerificationError):
    """Round-tripping the restriction/extension maps moved an element."""


class CompositionNotIso(VerificationError):
    """The composed transfer map is not an order isomorphism."""


class CoresNotHomeomorphic(RegOpenError, ValueError):
    """The supplied core identification is not a homeomorphism."""
