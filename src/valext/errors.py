"""Mathematical error conditions raised by the library.

Usage errors (bad constructor arguments, malformed input) raise plain
ValueError; everything below signals a mathematical condition a caller may
want to catch and report.
"""


class ValExtError(Exception):
    """Base class for mathematical errors."""


class NotIrreducible(ValExtError):
    """The defining polynomial turned out to be reducible over Q."""


class NegativeValue(ValExtError):
    """Residue requested for an element of negative value."""


class ZeroElement(ValExtError):
    """Operation undefined for the zero element."""


class GammaNotInValueGroup(ValExtError):
    """Target value does not lie in the value group of the extension."""
