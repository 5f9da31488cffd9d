"""Error types shared across the package.

PreconditionError marks a bad argument or a violated precondition, and the
CLI's size guardrails raise it too: exit code 2.  RangeTooLargeError refuses
a single sieve call beyond its span cap; like OverflowError (64-bit range
violations) it is a runtime failure, exit code 1.
"""


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class EmptyRangeError(PreconditionError):
    """A range that was required to contain primes is empty."""


class LevelTooLargeError(PreconditionError):
    """Sieve level R is too large for the requested interval (R^2 >= x)."""


class RangeTooLargeError(RuntimeError):
    """A single sieve call asked for more than the configured span.

    Callers that need a larger range should iterate segments instead.
    """


def require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)
