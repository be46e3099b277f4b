"""Exception types shared across the toolkit, one per remedy.

``BadParameters``: fix the arguments.  ``ParseError``: fix the graph text at
``.offset``.  ``BudgetExceeded``: raise the budget; the oracle turns a path
search out of budget into a Timeout verdict (exit 3).  The CLI maps every
other ``HamqError`` to exit 4.
"""


class HamqError(Exception):
    """Base class for all toolkit errors."""


class BadParameters(HamqError):
    """Arguments outside an operation's documented domain."""


class ParseError(HamqError):
    """Malformed graph text, located by a required byte ``offset``.

    ``offset`` is the byte offset of the fault in the text as given: the
    UTF-8 bytes of everything before it, skipped whitespace, blank lines and
    a graph6 header included.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BudgetExceeded(HamqError):
    """A search or enumeration exceeded ``budget``.  A search stops at the
    first expansion past it, so ``budget`` is also what it spent."""

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget
