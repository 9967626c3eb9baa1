"""Exception types shared across the toolkit."""


class WallkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(WallkitError):
    """Malformed presentation or complex file."""


class UnknownGenerator(ParseError):
    """A word uses a name not in the generator list."""


class EmptyRelator(WallkitError):
    """A relator freely/cyclically reduces to the empty word."""


class BadParams(WallkitError):
    """Builder parameters outside the valid range."""


class NotSmallCancellation(WallkitError):
    """Operation requires a presentation/complex that passed the metric condition."""


class BudgetExceeded(WallkitError):
    """Search frontier or vertex count exceeded the configured budget."""


class OddCell(WallkitError):
    """Wall construction needs even boundary cycles; subdivide first."""


class HypothesisViolated(WallkitError):
    """Caller-asserted premise failed re-verification."""
