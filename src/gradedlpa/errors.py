"""Exception types shared across the package."""


class GradedLpaError(Exception):
    """Base class for every error raised by this library."""


class GraphError(GradedLpaError):
    """Base class for graph-side precondition failures."""


class NotNoExitError(GraphError):
    """The operation requires a finite no-exit graph."""


class NotASinkError(GraphError):
    """The named vertex emits at least one edge."""


class VertexNotOnCycleError(GraphError):
    """The chosen base vertex does not lie on the given cycle."""


class UnknownVertexError(GraphError):
    """A referenced vertex is not part of the graph."""


class EmptyGraphError(GraphError):
    """The graph has no vertices."""


class TooManyCyclesError(GraphError):
    """Cycle enumeration exceeded its cap: raised by find_cycles, and so by
    classify on a graph that is not no-exit."""


class AlgebraError(GradedLpaError):
    """Base class for algebra-side failures."""


class InvalidStepError(AlgebraError):
    """A certificate step does not apply to the given base or shift list."""


class NotIsomorphicError(AlgebraError):
    """No graded isomorphism exists, so no certificate can be produced."""


class ShapeMismatchError(AlgebraError):
    """Matrix operands do not share size, base and shift list."""


class NotRealizableError(AlgebraError):
    """The algebra is not graded isomorphic to any Leavitt path algebra.

    Carries the deciding verdict in ``verdict``.
    """

    def __init__(self, verdict):
        super().__init__(f"not realizable: {verdict}")
        self.verdict = verdict


class EmptyIndexSetError(AlgebraError):
    """A corner needs at least one diagonal index."""


class IndexOutOfRangeError(AlgebraError):
    """A corner index falls outside 1..n."""


class ZeroCornerError(AlgebraError):
    """No path in any summand has its source in the chosen vertex set."""


class ParseError(GradedLpaError):
    """Syntax or semantic error in one of the textual input formats."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
