"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(RainbowError):
    """A generator or constructor was called with out-of-range parameters."""


class NotTwoConnected(RainbowError):
    pass


class NotInFamily(RainbowError):
    """The graph is outside F_k, so the requested index is undefined."""

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"graph is not in F_{k}")


class IsCycle(RainbowError):
    pass


class MinimallyTwoConnected(RainbowError):
    pass


class RegimeUnsupported(RainbowError):
    """The (k, m, n) combination is outside the constructions we know."""


class ConstructionRejected(RainbowError):
    """A constructor's self-verification failed; carries the counterexample."""

    def __init__(self, message, bad_set=None):
        self.bad_set = bad_set
        super().__init__(message)


class AttemptsExhausted(RainbowError):
    """A randomized constructor ran out of attempts without a certified output."""

    def __init__(self, attempts, message=None):
        self.attempts = attempts
        super().__init__(message or f"no certified colouring in {attempts} attempts")


class SpreadTooSmall(RainbowError):
    """The Hadamard spread could not meet its distance post-condition."""


class BaseWalkNotFound(RainbowError):
    """A base cube of the recursive colouring has no walk for a sampled tuple."""


class BudgetExceeded(RainbowError):
    """An exact search hit its node budget; carries any partial result."""

    def __init__(self, nodes, partial=None, message=None):
        self.nodes = nodes
        self.partial = partial
        super().__init__(message or f"search budget of {nodes} nodes exhausted")
