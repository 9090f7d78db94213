"""Exact computation of Hochschild, cyclic, and periodic cyclic
(co)homology for finite-dimensional multiplicative Hom-associative
algebras over the rationals.

`import homcyc` loads `algebra` (and with it `linalg`, `errors` and
`records`) only, so that a command-line request compiles no module its
subcommand does not use; none of them imports `dataclasses`.
Any other lookup on the package, of an exported name or of a submodule
name, as `from homcyc import corpus` makes, first imports the whole
public API, so no later computation pays for an import.  An exported
name is read from its defining module on every lookup and never kept
here, so a trace wrapper or a monkeypatch put on that module is what
the package returns.
"""

from importlib import import_module as _import_module

from .algebra import (AlgebraMorphism, HomAlgebra, direct_sum, find_unit,
                      is_centroid_element, load_algebra, unital_decompose,
                      unitalize, validate, validate_morphism, yau_twist)

# every other exported name, by defining module, in import order
_LAZY = {
    "coefficients": ("Bimodule", "a_circ", "coregular_dual",
                     "dualize_bimodule", "regular_bimodule",
                     "solve_homogeneous", "validate_homology_coefficients"),
    "complexes": ("Bicomplex", "ChainComplex", "HomologyReport", "homology",
                  "quotient_complex", "sub_complex", "total_complex"),
    "cyclic": ("CyclicReport", "PeriodicReport",
               "cyclic_cohomology_bicomplex", "cyclic_cohomology_both",
               "cyclic_cohomology_lambda", "cyclic_homology_bicomplex",
               "cyclic_homology_both", "cyclic_homology_lambda",
               "induced_map_on_homology", "periodic_cohomology",
               "periodic_homology", "xi_map"),
    "cocycles": ("Functional", "TwistedDerivation", "derivation_cocycle",
                 "is_cyclic_cocycle", "trace_space"),
    "hochschild": ("b_prime", "build_hochschild_cohomology_complex",
                   "build_hochschild_homology_complex", "coface_map",
                   "cyclic_t", "face_map", "hochschild_b",
                   "hochschild_cohomology", "hochschild_homology",
                   "homotopy_theta", "norm_N"),
    "linalg": ("Matrix", "Scalar", "Subspace", "image", "kernel",
               "quotient_dim", "rref"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["AlgebraMorphism", "HomAlgebra", "direct_sum", "find_unit",
           "is_centroid_element", "load_algebra", "unital_decompose",
           "unitalize", "validate", "validate_morphism", "yau_twist",
           *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    for module in _LAZY:
        _import_module(f"{__name__}.{module}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in globals():  # a submodule, bound by the imports above
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
