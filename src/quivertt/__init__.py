"""Exact computational tensor-triangular geometry for finite ordered quivers.

Everything is computed over exact fields (the rationals or a prime field):
path algebras with relations, representation categories with their
vertex-wise tensor product, bounded complexes, the spectrum of prime thick
tensor ideals with its structure (pre)sheaf, and the reconstruction of the
path algebra from the derived category.
"""

from .fields import QQ, FieldError, PrimeField, field_by_name
from .linalg import (Coordinates, DimensionMismatch, Echelon,
                     InconsistentSystem, Matrix, block_matrix, kronecker,
                     rref)
from .quiver import (Arrow, NotOrdered, Path, Quiver, QuiverError, Relation,
                     ResourceBudget, admissible_order, count_paths,
                     enumerate_paths, full_subquiver)
from .path_algebra import (CompatibilityResult, PathAlgebra, Presentation,
                           QuotientCertificateError, TensorCheck,
                           TensorRelationError, compatibility,
                           is_tensor_relations, module_hom_space,
                           require_tensor_relations)
from .repcat import (FiltrationStep, RepMorphism, Representation,
                     direct_sum, extend_by_zero, hom_space,
                     module_representation, restrict, satisfies_relations,
                     simple_object, tensor, unit_filtration, unit_object,
                     zero_object)
from .complexes import (BoundedComplex, ChainMap, ComplexError,
                        GradedVectorSpace, cohomology_at,
                        complex_from_json, complex_to_json, cone,
                        direct_sum_complex, eval_functor,
                        induced_cohomology_map, shift,
                        split_vector_complex, support, tensor_complex)
from .spectrum import (IdealDescriptor, IncompatibleSubquiver,
                       QuiverMorphism, SpectrumReport, closed_set, contains,
                       ideal_of, induced_spectrum_map, presheaf_sections,
                       prime_at, sheaf_sections, spc)
from .reconstruct import (CenterReport, ReconstructionError, assemble_A,
                          center_and_z, phi, psi, rational_points,
                          yoneda_coordinates)
from .dsl import ParseError, QuiverSpecFile, parse_quiver, parse_quiver_file

__version__ = "0.1.0"
