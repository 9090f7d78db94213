"""The library's exceptions, each a `ValueError`.

They live in one small module, so that a request loads them without the
modules that raise them, and every module that raises or catches one
imports it from here.  `cli._FAILURES` gives every one that a request
can raise its exit code, 2 for input the theory does not accept and 3
for an identity it asserts that fails, and its stderr prefix.  No
request raises `CoefficientHypothesisError` or `ChainMapError`: every
command takes the regular bimodule, which meets the homology
hypotheses, and no command maps one algebra to another.  A construction
refuses data that fail an axiom it checks through `algebra.refuse`;
only `linalg` and the digit limit raise bare `ValueError`s.  The one
exception class defined elsewhere is `records.FrozenInstanceError`, an
`AttributeError` that the record machinery raises on an assignment to
a field, as `dataclasses` does for a frozen class.
"""


class ShapeError(ValueError):
    """Raw algebra data, or an argument, has inconsistent shapes."""


class ValidationError(ValueError):
    """An algebra fails Hom-associativity or multiplicativity; the
    message is the failing basis tuples, one a line."""


class CoefficientError(ValueError):
    """A bimodule, or a dual one, fails its axioms."""


class PreconditionError(ValueError):
    """A valid algebra or argument that an operation does not apply to:
    a Yau twist of a non-associative algebra, an odd periodic window."""


class NotAnAlgebraMapError(PreconditionError):
    """A matrix given as an algebra endomorphism does not respect the
    product."""


class CocyclePreconditionError(PreconditionError):
    """A derivation or trace that a derivation cocycle needs is not one."""


class IdentityViolationError(ValueError):
    """A chain-level identity asserted by the theory fails: either the
    input algebra is malformed or the construction has a bug."""


class BoundarySquareError(ValueError):
    """d o d != 0: a construction bug or a violated chain-level identity."""


class NotStableError(ValueError):
    """The differential does not preserve the given family of subspaces."""


class NotASubspaceError(ValueError):
    """A vector, a subspace or a map's image does not lie in the
    subspace it is taken in."""


class CoefficientHypothesisError(ValueError):
    """The bimodule does not satisfy the extra homology-theorem hypotheses."""


class ChainMapError(ValueError):
    """A map given as a morphism is not one, or its induced map on
    chains fails to commute with b or to descend to the lambda complex."""


class DecompositionError(ValueError):
    """x = alpha(1) fails to be a central idempotent: contradicts the
    unital characterization lemma, flagged rather than worked around."""
