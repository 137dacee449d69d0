"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A search hit a fixed bound: a canonical search visited more than
    `bmcanon.NODE_BUDGET` nodes, or a permutation that did not lift left the
    rest of a point group (`equiv._find_lift`) larger than `equiv.COSET_CAP`
    untried.

    Raised instead of returning a possibly-wrong answer; a caller may try
    the other decision route.  Distinct from a proven negative result (which
    is reported as a normal return value).
    """


class ResourceLimitError(RuntimeError):
    """A point table of PG(k-1, q) would exceed `projgeom.MAX_POINTS`
    points; raised before any table is built or any search runs."""
