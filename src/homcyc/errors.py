"""The exceptions that the command line maps to exit codes.

They live in one small module, so that a request loads them without the
modules that raise them.  Each is re-exported by the module that raises
it, so `homcyc.complexes.BoundarySquareError` and
`homcyc.errors.BoundarySquareError` are one class.  `cli._FAILURES`
gives each its exit code, 2 for input the theory does not accept and 3
for an identity it asserts that fails, and its stderr prefix.
"""


class ShapeError(ValueError):
    """Raised when raw algebra data has inconsistent tensor shapes."""


class ValidationError(ValueError):
    """An algebra fails Hom-associativity or multiplicativity; the
    message is the failing basis tuples, one a line."""


class CoefficientError(ValueError):
    """A bimodule, or a dual one, fails its axioms."""


class PreconditionError(ValueError):
    """A valid algebra that an operation does not apply to: a Yau twist
    of a non-associative algebra, or a decomposition without a unit."""


class CocyclePreconditionError(PreconditionError):
    """A derivation or trace that a derivation cocycle needs is not one."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


class BoundarySquareError(ValueError):
    """d o d != 0: a construction bug or a violated chain-level identity."""


class NotStableError(ValueError):
    """The differential does not preserve the given family of subspaces."""


class DecompositionError(ValueError):
    """x = alpha(1) fails to be a central idempotent: contradicts the
    unital characterization lemma, flagged rather than worked around."""
