"""The exceptions that the command line maps to exit codes.

They live in one small module, so that a request loads them without the
modules that raise them.  Each is re-exported by the module that raises
it, so `homcyc.complexes.BoundarySquareError` and
`homcyc.errors.BoundarySquareError` are one class.
"""


class ShapeError(ValueError):
    """Raised when raw algebra data has inconsistent tensor shapes."""


class CoefficientError(ValueError):
    """A bimodule, or a dual one, fails its axioms."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


class BoundarySquareError(ValueError):
    """d o d != 0: a construction bug or a violated chain-level identity."""


class NotStableError(ValueError):
    """The differential does not preserve the given family of subspaces."""
