"""Exception types shared across the package, and the one budget check.

The CLI maps these onto exit codes: usage errors exit 1, DomainError (violated preconditions)
exits 2, NumericError exits 3.  ``check_budget`` refuses each input past a measured limit.
"""


class DomainError(ValueError):
    """A precondition on the requested computation is violated."""


class BudgetError(DomainError):
    """An input's ``used`` count, a ``what``, exceeds the ``limit`` of constant ``name``."""

    def __init__(self, name: str, used: int, limit: int, what: str):
        super().__init__(f"{what} {used} exceeds {name} = {limit}")
        self.name, self.used, self.limit = name, used, limit


def check_budget(name: str, used: int, limit: int, what: str) -> None:
    """Refuse ``used`` above ``limit``, the value of the constant ``name`` ("tl.MAX_STRANDS")."""
    if used > limit:
        raise BudgetError(name, used, limit, what)


class BoundaryError(DomainError):
    """A walk path leaves the strand range of its geometry."""


class IrreducibleWordError(DomainError):
    """A braid word the trace rewrite system cannot bring to canonical form."""

    def __init__(self, message: str, word=None):
        super().__init__(message)
        self.word = word


class NumericError(RuntimeError):
    """A numerical procedure failed to converge or lost too much precision."""
