"""The quadratic hydrodynamic recursion operator on R^3 and its Lenard complex.

The flow

    w2_t = 2 w1_x,    w1_t = 2 w0_x - w2 w2_x,    w0_t = -(1/2) w1 w2_x

has coefficient matrix V; recast as a (1,1)-tensor K through the covector
action (coordinates ordered (w0, w1, w2)):

    K dw2 = 2 dw1,    K dw1 = 2 dw0 - w2 dw2,    K dw0 = -(1/2) w1 dw2.

K has nonvanishing Nijenhuis torsion, completely characterized by

    dF(Torsion(K)) = dw2 ^ dF,

so powers of K do not produce a closed square of forms.  The corrected
operators K1 = Id, K2 = K, K3 = K^2 + w2 Id together with dA = dw2 and
X = d/dw0 satisfy all the complex conditions, and K itself has vanishing
Haantjes torsion.  K3 is one (1,1)-tensor field whose matrix is M^2 + w2 Id
and whose Jacobian is the product rule of M M plus d(w2 Id).  The torsion
identity is probed with one-forms dF: it reads only the differential.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chartcore import (
    Chart,
    Field,
    as_points,
    closure_defect,
    compose_jac,
    constant_field,
    constant_map,
    contract_torsion,
    covector_apply,
    covector_image,
    covector_image_jac,
    fd_check_tensor,
    lenard_residuals,
    nijenhuis_tensor,
    point_batch,
    worst,
    worst_by_name,
    wedge_matrix,
)
from .report import VerificationReport

W_CHART = Chart("w", 3)

# chain_independence reports the shortfall of |det| of the chain forms below this
# floor; it is not the regularity margin, so the regularity rule cannot move it
CHAIN_DET_FLOOR = 1e-3


@functools.cache
def gd_operator() -> Field:
    """The recursion operator; row i is the covector image of dw_i."""

    jac = np.zeros((3, 3, 3))
    jac[0, 2, 1] = -0.5
    jac[1, 2, 2] = -1.0

    def coeff(w: np.ndarray) -> np.ndarray:
        w = as_points(w)
        m = np.zeros(w.shape[:-1] + (3, 3), w.dtype)
        m[..., 0, 2] = -0.5 * w[..., 1]
        m[..., 1, 0] = 2.0
        m[..., 1, 2] = -w[..., 2]
        m[..., 2, 1] = 2.0
        return m

    return Field(W_CHART, coeff, constant_map(jac))


@dataclass(frozen=True, eq=False)
class GDComplex:
    operators: tuple[Field, Field, Field]
    dA: Field
    X: Field


@functools.cache
def gd_complex() -> GDComplex:
    k = gd_operator()
    eye = np.eye(3)
    # d(w2 Id)[i, j, d] = delta_ij dw2_d
    w2_identity_jac = np.einsum("ij,d->ijd", eye, eye[2])

    def k3_mat(w: np.ndarray) -> np.ndarray:
        """K3 = K^2 + w2 Id."""
        m = k.coeff(w)
        return m @ m + w[..., 2, None, None] * eye

    def k3_jac(w: np.ndarray) -> np.ndarray:
        m, jm = k.coeff(w), k.jac(w)
        return compose_jac(m, m, jm, jm) + w2_identity_jac

    return GDComplex(
        operators=(constant_field(W_CHART, eye), k, Field(W_CHART, k3_mat, k3_jac)),
        dA=constant_field(W_CHART, eye[2]),
        X=constant_field(W_CHART, eye[0]),
    )


def gd_torsion_identity_residual(probes: Sequence[Field], p) -> float:
    """Worst residual of df(Torsion(K)) = dw2 ^ df over the probe one-forms
    df and the points p; N_K is formed once for all probes."""
    n = nijenhuis_tensor(gd_operator(), p)
    e2 = np.array([0.0, 0.0, 1.0])

    def residuals() -> Iterator[np.ndarray]:
        for df in probes:
            theta = df.coeff_at(p)
            yield contract_torsion(theta, n) - wedge_matrix(e2, theta)

    return worst(*residuals())


@functools.cache
def naive_power_form(k_power: int) -> Field:
    """K^k dw2 for the uncorrected power chain; not closed from k = 3 on."""
    k = gd_operator()
    form = constant_field(W_CHART, [0.0, 0.0, 1.0])
    for _ in range(k_power):
        form = covector_image(k, form)
    return form


# the square's (j, l) with j <= l: theta_jl = theta_lj for a commuting complex
_SQUARE = tuple(itertools.combinations_with_replacement(range(3), 2))


def _chain_and_square(da: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The chain forms theta_j = K_j dA and the square forms theta_jl = K_j
    theta_l (``_SQUARE`` order) as rows (..., 9, 3), from dA and the operator
    matrices at the same points."""
    chain = [covector_apply(da, m) for m in mats]
    return np.stack(chain + [covector_apply(chain[l], mats[j]) for j, l in _SQUARE], axis=-2)


def _chain_and_square_jacs(da: np.ndarray, jda: np.ndarray, mats: Sequence[np.ndarray],
                           jacs: Sequence[np.ndarray], forms: np.ndarray) -> np.ndarray:
    """The Jacobians (..., 9, 3, 3) of :func:`_chain_and_square`'s rows
    ``forms`` by the product rule, from dA and the operators at the same
    points."""
    jchain = [covector_image_jac(da, jda, m, jm) for m, jm in zip(mats, jacs)]
    return np.stack(jchain + [covector_image_jac(forms[..., l, :], jchain[l], mats[j], jacs[j])
                              for j, l in _SQUARE], axis=-3)


# verify_gd_complex's conditions in report order; chain independence follows
_CONDITIONS = (
    "chain_closure", "square_closure", "vector_field_commutators",
    "operator_commutators", "haantjes_torsion", "operator_symmetry_along_X",
    "jacobian_fd_agreement",
)


def verify_gd_complex(points: Sequence, tol_analytic: float = 1e-8,
                      tol_fd: float = 1e-6) -> VerificationReport:
    """Check the complex conditions for (Id, K, K^2 + w2 Id, dw2, d/dw0),
    each field evaluated once over the whole (N, 3) batch of points.

    The chain forms theta_j = K_j dA and the square forms theta_jl = K_j K_l
    dA (j <= l) and their Jacobians are derived from the operator matrices
    and Jacobians by the product rule.  One FD check covers the six square
    forms and the operators' rows: its value map evaluates the three
    operators once per shifted batch.
    """
    pts = point_batch(points, 3)
    cx = gd_complex()

    def square_and_operator_rows(w: np.ndarray) -> np.ndarray:
        """The square forms and the operators' rows at w, as rows (..., 15, 3)."""
        mats = [k.coeff(w) for k in cx.operators]
        forms = _chain_and_square(cx.dA.coeff(w), mats)
        return np.concatenate([forms[..., 3:, :], *mats], axis=-2)

    mats = [k.coeff_at(pts) for k in cx.operators]
    jacs = [k.jac_at(pts) for k in cx.operators]

    def own_conditions() -> Iterator[tuple[str, np.ndarray]]:
        da = cx.dA.coeff_at(pts)
        forms = _chain_and_square(da, mats)
        jforms = _chain_and_square_jacs(da, cx.dA.jac_at(pts), mats, jacs, forms)
        yield "chain_closure", closure_defect(jforms[..., :3, :, :])
        yield "square_closure", closure_defect(jforms[..., 3:, :, :])
        for jm in jacs:
            # Lie_X(K) = 0 for X = d/dw0: no matrix entry depends on w0.
            yield "operator_symmetry_along_X", jm[..., 0]
        yield "jacobian_fd_agreement", fd_check_tensor(square_and_operator_rows,
                                                       [jforms[..., 3:, :, :], *jacs], pts)
        # chain independence is reported per point, not assumed (here det = -8
        # identically); LAPACK may read a NaN point's det as 0 or as NaN, so
        # it is set to NaN there, and fails the condition
        chain = forms[..., :3, :]
        with np.errstate(invalid="ignore"):
            det = np.abs(np.linalg.det(chain))
        det = np.where(np.isfinite(chain).all(axis=(-2, -1)), det, np.nan)
        yield "chain_independence", np.maximum(0.0, CHAIN_DET_FLOOR - det)

    worst_of = worst_by_name(itertools.chain(
        lenard_residuals(mats, jacs, cx.X.coeff_at(pts), cx.X.jac_at(pts)), own_conditions()))
    report = VerificationReport()
    for name in _CONDITIONS:
        report.add(name, len(pts), worst_of[name],
                   tol_fd if name == "jacobian_fd_agreement" else tol_analytic)
    report.add("chain_independence", len(pts), worst_of["chain_independence"], 1e-12)
    return report
