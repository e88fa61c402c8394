"""Exception hierarchy shared by all origami_covers modules."""


class OrigamiCoversError(Exception):
    """Base class for all library errors."""


class NotDivisible(OrigamiCoversError):
    """The divisor of an exact polynomial division does not divide."""


class DivisionByZero(OrigamiCoversError):
    """Division by a zero polynomial or rational function."""


class InvalidInput(OrigamiCoversError):
    """An argument violates a precondition (e.g. gcd of two zero polynomials)."""


class InvalidGenus(OrigamiCoversError):
    """Genus argument outside the supported range."""


class InvalidCurve(OrigamiCoversError):
    """A curve fails its structural requirements (zero or too-low-degree rhs)."""


class InvalidCover(OrigamiCoversError):
    """A cover object is malformed (e.g. vanishing second map component)."""


class UnsupportedShape(OrigamiCoversError):
    """The ramification certifier only handles monomial pullback coefficients."""


class NotConnected(OrigamiCoversError):
    """The origami diagram does not describe a connected surface."""


class InvalidDegree(OrigamiCoversError):
    """Degree argument outside the supported range (e.g. even two-branch map)."""


class PipelineError(OrigamiCoversError):
    """The degeneration pipeline's commutative square failed to close."""


class FirstOrderOnly(OrigamiCoversError):
    """A first-order deformation solution did not globalize to an exact cover."""


class ParseError(OrigamiCoversError):
    """A polynomial / rational-function / diagram string failed to parse."""
