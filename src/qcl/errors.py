"""Error taxonomy shared by every module.

The CLI maps these onto exit codes: PreconditionError -> 2,
BudgetError -> 3, VerificationError -> 4.
"""


class QclError(Exception):
    pass


class PreconditionError(QclError):
    """An operation was called outside its stated domain."""


class BudgetError(QclError):
    """An enumeration or memory budget would be exceeded."""


class VerificationError(QclError):
    """An identity that should hold exactly did not."""
