"""Exception hierarchy.

Every failure mode surfaced by the library is a subclass of AinftyError, so
callers (in particular the CLI) can separate input problems from verdicts.
"""


class AinftyError(Exception):
    pass


class ZeroElement(AinftyError):
    """Degree of the zero element is undefined."""


class Inhomogeneous(AinftyError):
    """Element mixes basis terms of different degrees."""


class IndexOutOfRange(AinftyError):
    pass


class ArityMismatch(AinftyError):
    pass


class ModuleMismatch(AinftyError):
    pass


class DegreeMismatch(AinftyError):
    """An operation table entry violates its degree constraint."""


class UnknownName(AinftyError):
    pass


class NotPrime(AinftyError):
    pass


class NotADifferential(AinftyError):
    pass


class NotAssociative(AinftyError):
    pass


class LeibnizFailure(AinftyError):
    pass


class NotACocycle(AinftyError):
    pass


class NotAComplex(AinftyError):
    """Boundary matrices do not compose to zero."""


class NotChainMap(AinftyError):
    pass


class UnknownFixture(AinftyError):
    pass


class InternalInvariant(AssertionError):
    """A self-check inside the library failed: a bug, not bad input or a verdict."""


class TooLarge(AinftyError):
    """A request whose size is over a library limit; the message names both."""


class DocumentError(AinftyError):
    """Malformed structure document; message carries the offending location."""
