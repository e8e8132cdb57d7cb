"""Shared error types.  Budget errors are always explicit, never silent."""


class RankGradientError(Exception):
    pass


class BudgetError(RankGradientError):
    """A configurable resource cap was hit before the computation finished."""


class IndexBoundExceeded(BudgetError):
    """Coset enumeration did not complete within the live-coset budget."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(
            f"coset enumeration exceeded {cap} live cosets; "
            "the subgroup may have infinite index or the budget is too small"
        )


class IntersectionTooLarge(BudgetError):
    """An intersection of coset tables has more cosets than the index cap;
    ``index`` is its full index, counted without building the table."""

    def __init__(self, index, cap):
        self.index = index
        self.cap = cap
        super().__init__(f"intersection index {index} exceeds cap {cap}")


class ImageTooLarge(BudgetError):
    """The permutation image group grew past the closure cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"permutation image group exceeded {cap} elements")


class LowIndexBudget(BudgetError):
    """Low-index search ran out of nodes; carries the (class table, class
    size) pairs found so far."""

    def __init__(self, cap, partial):
        self.cap = cap
        self.partial = partial
        super().__init__(f"low-index search exceeded {cap} nodes ({len(partial)} tables found)")


class RelatorLengthExceeded(BudgetError):
    """A rewritten or substituted relator grew past the length cap."""

    def __init__(self, cap, length, context=""):
        self.cap = cap
        self.length = length
        super().__init__(f"relator length {length} exceeds cap {cap}" + (f" ({context})" if context else ""))


class LabelLengthExceeded(BudgetError):
    """A graphing label product grew past the length cap."""

    def __init__(self, cap, label):
        self.cap = cap
        self.label = label
        super().__init__(f"graphing label of length {len(label)} exceeds cap {cap}")


class InternalInvariantError(RankGradientError):
    """An internal consistency check failed; this is a bug, not bad input."""
