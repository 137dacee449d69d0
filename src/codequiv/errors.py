"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A search hit a fixed bound: a canonical search visited more than
    `bmcanon.NODE_BUDGET` nodes, or, on a side of dimension 2, a sigma0
    that did not lift left a frame orbit (`lift._find_lift`) that may hold
    more than `lift.COSET_CAP` images (sides of higher dimension go on to
    one isomorphism search of their incidence matrices instead).

    Raised instead of returning a possibly-wrong answer.  Distinct from a
    proven negative result (which is reported as a normal return value).
    """


class ResourceLimitError(RuntimeError):
    """A point table of PG(k-1, q) would exceed `projgeom.MAX_POINTS`
    points, or its incidence matrix `projgeom.MAX_INCIDENCE_CELLS` cells;
    raised before the table or the matrix is built."""
