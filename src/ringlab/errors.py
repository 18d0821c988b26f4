"""Exception types shared across the package."""


class RinglabError(Exception):
    """Base class for all ringlab errors."""


class InvalidConstruction(RinglabError):
    """The requested structure violates a construction precondition."""


class ConfigError(RinglabError):
    """A run-wide setting, such as an environment override, has an invalid value, or a
    corpus or report file cannot be read or written."""


class SizeLimitError(RinglabError):
    """A construction would exceed the configured element-count cap."""


class TypeMismatch(RinglabError):
    """An argument belongs to a different ring than expected."""


class NotAHomomorphism(RinglabError):
    """A claimed ring map violates a homomorphism law.

    Carries ``law`` (one of "one", "add", "mul") and the offending pair.
    """

    def __init__(self, law, pair):
        self.law = law
        self.pair = pair
        super().__init__(f"{law} law violated at {pair}")


class NotApplicableError(RinglabError):
    """An operation's hypothesis is not met (e.g. map is not an isomorphism)."""


class NotProperError(RinglabError):
    """The ideal argument must be proper."""


class NotAnIdealError(RinglabError):
    """The requested subset is not an ideal; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class DegreeLimitError(RinglabError):
    """A polynomial operation would exceed the hard degree cap."""


class ConstructionBug(RinglabError):
    """An internal invariant that should always hold was violated."""


class UnknownTheorem(RinglabError):
    """An id not present in the proposition registry."""


class UnknownHypothesis(RinglabError):
    """A hypothesis name not declared by the targeted registry entry."""


class ParseError(RinglabError):
    """A ring expression, generator list or corpus line failed to parse."""
