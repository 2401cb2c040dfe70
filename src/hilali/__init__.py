"""Exact rational computations with finitely generated Sullivan models.

The package computes cohomology of rational commutative differential graded
algebras exactly, builds finite-length quotient modules with certified
monomial bases, evaluates Tor tables through Koszul complexes, runs
deformation and perturbation checks, and decides the dimension inequality
dim V <= dim H* for minimal elliptic models of pure and hyperelliptic type.
"""

__version__ = "0.1.0"

from .algebra import (Element, Generator, GeneratorUniverse, Monomial, basis,
                      dimension_series, format_element, universe)
from .cohomology import (BettiTable, EllipticityCertificate, Verdict, betti,
                         betti_by_odd_count, betti_complete, certify_elliptic,
                         coboundary_basis, cocycle_basis, cohomology_table,
                         euler_characteristics, formal_dimension_bound,
                         hilali_verdict, is_exact, require_elliptic)
from .deformation import (FlatnessReport, ModuleFamily, PerturbedModel,
                          ReductionReport, SemicontinuityReport,
                          flatness_check, perturb_and_reduce,
                          random_rational, standard_family,
                          tor_semicontinuity_check)
from .errors import (ContradictionError, EngineError, IndeterminateError,
                     InhomogeneousError, ModelError, NotFiniteLengthError,
                     ParseError, UniverseMismatchError)
from .koszul import (CrossCheckReport, HalperinBasis, PairingReport,
                     QuotientModule, SModuleStructure, TorTable,
                     duality_pairing, even_subring, halperin_basis,
                     is_regular_sequence, odd_images, quotient_basis,
                     tor_bounds_check, tor_table, tor_via_model_cross_check)
from .model import (Classification, Derivation, Model, ValidationReport,
                    check_differential, check_minimal, classify, load_model,
                    model_from_dict, model_to_dict, pure_part, read_model,
                    restrict_model, save_model, tensor_with_odd_line)
from .parsing import parse_expression

__all__ = [name for name in dir() if not name.startswith("_")]
