"""Numerical construction and verification of equivariant Lenard complexes,
the associated WDVV identities, and the quadratic hydrodynamic example."""

from .chartcore import (
    Chart,
    OneFormField,
    Permutation,
    ScalarField,
    SingularPointError,
    TensorField11,
    VectorFieldSpec,
    closure_residual,
    commutator_residual,
    haantjes_residual,
    integrate_one_form,
    lie_bracket,
    lie_bracket_residual,
    nijenhuis_contracted,
    pullback,
)
from .equivariant import (
    FamilyParams,
    LenardComplex,
    QuadraticInvariant,
    assemble_complex,
    build_dP,
    build_dQ,
    complete_square,
    example3_fixture,
    phi,
    psi,
    reconstruct_potential_entry,
    solve_phi_roots,
    solve_sigma_constraints,
    split_form_residual,
    verify_complex,
    wdvv_residual_of_complex,
)
from .gelfand_dikii import gd_complex, gd_operator, gd_torsion_identity_residual, verify_gd_complex
from .report import VerificationReport
from .wdvv import (
    EulerWeights,
    Prepotential,
    VeselovPotential,
    g_matrix,
    generalized_wdvv_residual,
    veselov_hessian,
    veselov_third,
    wdvv_residual,
)

__version__ = "0.1.0"
