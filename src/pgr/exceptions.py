"""Exception types raised across the package."""


class PgrError(Exception):
    """Base class for all errors raised by this package."""


class EdgeIdClash(PgrError):
    """Two graphs passed to a union share edge ids."""


class DomainGap(PgrError):
    """A renaming does not cover every id of the graph it is applied to."""


class NotASubgraph(PgrError):
    """The selected vertex/edge sets do not induce a subgraph."""


class InvalidPatch(PgrError):
    """A patch decomposition violates its invariants."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class InvalidRule(PgrError):
    """A rule violates its structural invariants."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SharedName(PgrError):
    """Two distinct left-hand-side nodes carry the same name annotation."""


class DanglingRhsName(PgrError):
    """A right-hand-side name annotation has no left-hand-side counterpart."""


class PositionMismatch(PgrError):
    """A black-marked node is not present on both sides of a rule."""


class NotAMorphism(PgrError):
    """A supplied vertex/edge map is not a graph morphism."""


class BadArity(PgrError):
    """Request arity out of range (need 0 < n <= m)."""


class StepLimitReached(PgrError):
    """Normalization hit the step limit before reaching a normal form."""

    def __init__(self, graph, trace):
        super().__init__(f"no normal form within {len(trace)} steps")
        self.graph = graph
        self.trace = trace


class DeterminismViolation(PgrError):
    """A rule expected to be deterministic produced non-isomorphic results."""


class SelfLoopInTopology(PgrError):
    """An undirected network topology contains a self loop."""


class AlphabetClash(PgrError):
    """Vertex-label alphabet overlaps the edge-label alphabet."""


class ParseError(PgrError):
    """Syntax or reference error in a text document; carries a location."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownTraceKey(ParseError):
    """A right-hand-side type edge cites a key that the left side lacks."""


class ContextPreservationViolation(PgrError):
    """A right type edge touches the context but its trace image does not."""
