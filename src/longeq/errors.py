"""Exception hierarchy shared by all longeq modules."""


class LongeqError(Exception):
    """Base class for all errors raised by longeq."""


class NonCommutingPair(LongeqError):
    """f and g do not commute, so f(x)g is not a Long solution by this route."""


class SingularMatrix(LongeqError):
    """A matrix expected to be invertible is singular."""


class SingularOperator(LongeqError):
    """The operator's matrix view is not invertible over the rationals."""


class NotALongSolution(LongeqError):
    """The operator fails the Long equation.

    ``witness`` carries the first violating (i, j, k, l, p, q) six-tuple
    (1-based) together with the componentwise equation number (1 or 2).
    """

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotIdempotent(LongeqError):
    """The supplied index map does not satisfy phi(phi(i)) == phi(i)."""


class NotASubmodule(LongeqError):
    """A homogeneous component is not stable under every action matrix."""


class CentralityViolated(LongeqError):
    """The two-tensor element does not commute with a generator in its left leg."""


class SigmaIllDefined(LongeqError):
    """sigma fails to vanish on the relation span, so it does not descend.

    On the obstruction span of R it means R is not Long (``frt`` module
    docstring); ``frt.SigmaForm`` also raises it for a quotient built from
    another operator's relations.
    """


class NotAStrongDMap(LongeqError):
    """The bilinear table violates the strong D-map identity on the coalgebra."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class InvalidCoaction(LongeqError):
    """The coaction coefficients violate the counit or coassociativity law."""


class InvalidBialgebra(LongeqError):
    """Structure constants do not define a bialgebra."""


class InvalidGroupTable(LongeqError):
    """The multiplication table is not a group table."""


class PathTooClose(LongeqError):
    """Two configuration points nearly collide along the discretized loop."""


class DimensionCap(LongeqError):
    """n**N exceeds the configured dimension cap."""


class InternalCheckFailed(LongeqError):
    """A guaranteed-by-construction property failed; indicates a bug."""
