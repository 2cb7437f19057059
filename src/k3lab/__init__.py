"""k3lab: exact-arithmetic toolkit for quadric systems, moduli-dimension
bookkeeping on K3 surfaces, invariant-relation sampling, and integral
lattice constructions."""

from .errors import (BadPrime, BadReduction, DegenerateBranch,
                     DegenerateSystem, DivisibilityViolation, FieldMismatch,
                     K3LabError, NoSplitMember, NotInSpan, NotSplit,
                     PreconditionError, SingularMatrix, VariableCountMismatch,
                     VerificationFailure)
from .scalars import GF, QQ, Fraction, GFElement, PrimeField, projective_points
from .poly import MultiPoly, poly_from_text, poly_to_text
from .polymat import KLEIN_INDEX_PAIRS, LinearMatrix, PolyMatrix, pfaffian, poly_det
from .quartic import BinaryQuartic
from .quadforms import (QuadraticForm, WittDecomposition, diagonalize,
                        express_as_2x2_det, express_as_pfaffian, is_split,
                        isotropic_vector, witt_split)
from .systems import (CoverVerdict, DoubleCoverDescriptor, NetOfQuadrics,
                      PencilOfQuadrics, QuadricSystem, count_points, discriminant_poly,
                      jacobian_j_invariant, moduli_double_cover,
                      net_discriminant, net_smoothness_probe, pencil_discriminant,
                      pic2_double_cover, sextic_smoothness_probe)
from .construction import (InvarianceReport, InvariantData, RelationReport,
                           SystemPoint, b_coordinates, group_invariance_check,
                           invariants, random_gl, random_sl, sample_point,
                           t_invariant, verify_relation, wedge2_matrix)
from .lattices import (IntegralLattice, MukaiVector, OverlatticeSpec,
                       e8_lattice, hyperbolic_plane_lattice, is_k3_moduli,
                       is_rigid, k3_lattice, l_zero_sublattice,
                       lattice_invariants, moduli_dim, overlattice)
from .enumerative import (EXPECTED_DIM_BASIS, FANO_GENERA, HOMOGENEOUS_SPACES,
                          HomSpaceDatum, brill_noether_number, fano_degree,
                          fano_genus_allowed, linear_section_invariants,
                          pairs_moduli_dims, restriction_section_bound,
                          type_ii_expected_dim, type_iii_expected_dim)

__version__ = "0.1.0"
