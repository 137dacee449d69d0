"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its node/candidate budget.

    Raised instead of returning a possibly-wrong answer; callers may retry
    with a larger budget or switch strategy.  Distinct from a proven negative
    result (which is reported as a normal return value).
    """


class ResourceLimitError(RuntimeError):
    """A point table of PG(k-1, q) would exceed `projgeom.MAX_POINTS`
    points; raised before any table is built or any search runs."""
