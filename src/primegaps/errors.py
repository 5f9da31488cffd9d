"""The package's one error type.

Every refusal is a PreconditionError raised through require: a bad
argument, a violated precondition (an empty gap window, a level with
R^2 >= x, a sieve span past one segment), or a size the CLI's guardrails
refuse.  The CLI maps it to exit code 2; exit code 1 is left to runtime
failures (OverflowError, OSError).
"""


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)
