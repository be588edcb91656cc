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
Haantjes torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chartcore import (
    Chart,
    OneFormField,
    ScalarField,
    TensorField11,
    VectorFieldSpec,
    closure_residual,
    constant_form,
    constant_map,
    coordinate_vector_field,
    covector_image,
    fd_check_one_form,
    fd_check_tensor,
    identity_tensor,
    lenard_residuals,
    nijenhuis_contracted,
    point_batch,
    tensor_add_scalar_identity,
    tensor_compose,
    wedge_matrix,
)
from .report import VerificationReport

W_CHART = Chart("w", 3)

# chain_independence reports the shortfall of |det| of the chain forms below this
# floor; it is not the regularity margin, so the regularity rule cannot move it
CHAIN_DET_FLOOR = 1e-3


def gd_operator() -> TensorField11:
    """The recursion operator; row i is the covector image of dw_i."""

    jac = np.zeros((3, 3, 3))
    jac[0, 2, 1] = -0.5
    jac[1, 2, 2] = -1.0

    def mat(w: np.ndarray) -> np.ndarray:
        m = np.zeros(np.shape(w)[:-1] + (3, 3))
        m[..., 0, 2] = -0.5 * w[..., 1]
        m[..., 1, 0] = 2.0
        m[..., 1, 2] = -w[..., 2]
        m[..., 2, 1] = 2.0
        return m

    return TensorField11(W_CHART, mat, constant_map(jac))


def gd_scalar() -> ScalarField:
    """The scalar entering K3 = K^2 + A Id; dA = dw2 fixes A = w2 up to a
    constant, which is taken to be zero (closure checks do not see it)."""
    return ScalarField(W_CHART, lambda w: w[..., 2], constant_map([0.0, 0.0, 1.0]))


@dataclass(frozen=True, eq=False)
class GDComplex:
    operators: tuple[TensorField11, TensorField11, TensorField11]
    dA: OneFormField
    X: VectorFieldSpec


def gd_complex() -> GDComplex:
    k = gd_operator()
    k3 = tensor_add_scalar_identity(tensor_compose(k, k), gd_scalar())
    return GDComplex(
        operators=(identity_tensor(W_CHART), k, k3),
        dA=constant_form(W_CHART, [0.0, 0.0, 1.0]),
        X=coordinate_vector_field(W_CHART, 0),
    )


def gd_torsion_identity_residual(f: ScalarField, p) -> float:
    """Worst residual of df(Torsion(K)) = dw2 ^ df over the points p."""
    k = gd_operator()
    contracted = nijenhuis_contracted(k, f, p)
    e2 = np.array([0.0, 0.0, 1.0])
    target = wedge_matrix(e2, f.grad_at(p))
    return float(np.max(np.abs(contracted - target)))


def chain_form(cx: GDComplex, j: int) -> OneFormField:
    """theta_j = K_j dA."""
    return covector_image(cx.operators[j], cx.dA)


def square_form(cx: GDComplex, j: int, l: int) -> OneFormField:
    """theta_{jl} = K_j K_l dA."""
    return covector_image(cx.operators[j], chain_form(cx, l))


def naive_power_form(k_power: int) -> OneFormField:
    """K^k dw2 for the uncorrected power chain; not closed from k = 3 on."""
    k = gd_operator()
    form = constant_form(W_CHART, [0.0, 0.0, 1.0])
    for _ in range(k_power):
        form = covector_image(k, form)
    return form


# verify_gd_complex's conditions in report order; chain independence follows
_CONDITIONS = (
    "chain_closure", "square_closure", "vector_field_commutators",
    "operator_commutators", "haantjes_torsion", "operator_symmetry_along_X",
    "jacobian_fd_agreement",
)


def verify_gd_complex(points: Sequence, tol: float = 1e-8,
                      tol_fd: float = 1e-6) -> VerificationReport:
    """Check the complex conditions for (Id, K, K^2 + w2 Id, dw2, d/dw0),
    each field evaluated once over the whole (N, 3) batch of points."""
    pts = point_batch(points, 3)
    cx = gd_complex()
    chain = [chain_form(cx, j) for j in range(3)]
    square = [square_form(cx, j, l) for j in range(3) for l in range(j, 3)]

    def extras(w: np.ndarray, mats: list[np.ndarray],
               jacs: list[np.ndarray]) -> Iterator[tuple[str, float]]:
        for f in chain:
            yield "chain_closure", closure_residual(f, w)
        for jm in jacs:
            # Lie_X(K) = 0 for X = d/dw0: no matrix entry depends on w0.
            yield "operator_symmetry_along_X", float(np.max(np.abs(jm[..., 0])))
        for f in square:
            yield "jacobian_fd_agreement", fd_check_one_form(f, w)
        for k in cx.operators:
            yield "jacobian_fd_agreement", fd_check_tensor(k, w)
        # chain independence is reported per point, not assumed (here det = -8
        # identically)
        det = np.abs(np.linalg.det(np.stack([f.coeff_at(w) for f in chain], axis=-2)))
        yield "chain_independence", float(np.max(np.maximum(0.0, CHAIN_DET_FLOOR - det)))

    worst = lenard_residuals(cx.operators, cx.X, square, pts, extras)
    report = VerificationReport()
    for name in _CONDITIONS:
        report.add(name, len(pts), worst[name], tol_fd if name == "jacobian_fd_agreement" else tol)
    report.add("chain_independence", len(pts), worst["chain_independence"], 1e-12)
    return report
