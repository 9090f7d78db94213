"""Exact computation of Hochschild, cyclic, and periodic cyclic
(co)homology for finite-dimensional multiplicative Hom-associative
algebras over the rationals."""

from .algebra import (AlgebraMorphism, HomAlgebra, direct_sum, find_unit,
                      is_centroid_element, load_algebra, unital_decompose,
                      unitalize, validate, validate_morphism, yau_twist)
from .coefficients import (Bimodule, a_circ, coregular_dual,
                           dualize_bimodule, regular_bimodule,
                           validate_homology_coefficients)
from .complexes import (Bicomplex, ChainComplex, HomologyReport, homology,
                        quotient_complex, sub_complex, total_complex)
from .cyclic import (CyclicReport, PeriodicReport, connes_bB_report,
                     cyclic_cohomology_bicomplex, cyclic_cohomology_both,
                     cyclic_cohomology_lambda, cyclic_homology_bicomplex,
                     cyclic_homology_both, cyclic_homology_lambda,
                     hochschild_cohomology, hochschild_homology,
                     induced_map_on_homology, periodic_cohomology,
                     periodic_homology, xi_map)
from .cocycles import (Functional, TwistedDerivation, derivation_cocycle,
                       is_cyclic_cocycle, trace_space)
from .hochschild import (b_prime, build_hochschild_cohomology_complex,
                         build_hochschild_homology_complex, coface_map,
                         cyclic_t, face_map, hochschild_b, homotopy_theta,
                         norm_N)
from .linalg import (Matrix, Scalar, Subspace, image, kernel, quotient_dim,
                     rref, solve_homogeneous)

__version__ = "0.1.0"
