"""Exception types shared across the toolkit."""


class HamqError(Exception):
    """Base class for all toolkit errors."""


class BadParameters(HamqError):
    """Arguments outside an operation's documented domain."""


class NotAnEdge(HamqError):
    """An edge deletion referenced a pair that is not an edge."""


class ParseError(HamqError):
    """Malformed graph text; carries the byte offset of the offending input."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SizeLimit(HamqError):
    """Exact search requested beyond its guaranteed size gate."""


class DimensionMismatch(HamqError):
    """Vector length does not match the graph order."""


class NotConnected(HamqError):
    """Operation requires a connected graph."""


class ZeroVector(HamqError):
    """Rayleigh quotient of the zero vector is undefined."""


class NotInE0(HamqError):
    """A deletion set is not contained in the family's eligible edge set."""


class BudgetExceeded(HamqError):
    """Enumeration or embedding search exceeded its configured budget."""


class SearchTimeout(HamqError):
    """Path search exhausted its node-expansion budget.

    The search stops at the first expansion past ``budget``, so ``budget`` is
    also the number of expansions it spent.
    """

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} node expansions exhausted")
        self.budget = budget


class BadSuite(HamqError):
    """Unknown verification suite id."""
