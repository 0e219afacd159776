"""Exact computations with symmetric orders over the p-local integers."""

from .padic import Prime, ResidueClass, residue_class, scalar_to_str, val
from .linalg import (
    integral_kernel,
    lattice_basis_from_generators,
    lattice_quotient_invariants,
    smith_normal_form,
)
from .orders import (
    Order,
    condense,
    direct_product,
    make_order,
    tensor_product,
)
from .forms import (
    LinearForm,
    PspCertificate,
    casimir,
    casimir_inverse,
    casimir_spectrum,
    casimir_spectrum_from_data,
    central_idempotents,
    dual_basis,
    is_symmetrising,
    psp_direct,
    psp_regular_gram,
    regular_character_form,
    relative_trace,
    scalar_spectrum_test,
    schur_coefficients,
    separability_check,
    twist_form,
)
from .lattices import (
    Lattice,
    adjunction_check,
    constant_value_check,
    direct_sum,
    exponent,
    hom_lattice,
    knorr_check,
    knorr_exponent_equivalence,
    knorr_projective_check,
    make_lattice,
    projective_hom_lattice,
    regular_lattice,
    residue_endo_analysis,
    stable_exponent_check,
    stable_hom,
    stable_socle_property,
    tate_pair,
    verify_tate_duality,
)
from .decomp import (
    CharacterTable,
    DecompositionMatrix,
    degree_divisibility_checks,
    height,
    height_invariance_check,
    make_character_table,
    make_decomposition_matrix,
    min_degree_check,
    morita_psp_search,
    morita_psp_search_integers,
    morita_shift_witness,
    rational_centre,
    rational_intersection_criterion,
    rational_symmetry_search,
)
from .bundle import Bundle, load_bundle, save_bundle

__version__ = "0.1.0"
