"""Equivariant Lenard complexes on R^3 built from logarithmic one-form families.

The construction runs in two charts related by the constant Hessian H of an
S3-invariant quadratic A:

    A-coordinates  A = H a,          H = (alpha - beta) I + beta J,

with the one-form family defined in the A-chart,

    dQ = sum_k sigma_k [ d(A1 + eta_k A2)/(A1 + eta_k A2)
                         + d(A2 + eta_k A1)/(A2 + eta_k A1) ],
    dP = sigma0 dA1/A1
         + sum_k (sigma_k/eta_k) [ d(A1 + eta_k A2)/(...) + d(A1 + eta_k A3)/(...) ]
         + sum_k (sigma_k eta_k) [ d(A2 + eta_k A1)/(...) + d(A3 + eta_k A1)/(...) ],

and everything converted to the a-chart, where the permutation action is the
plain coordinate transposition (H commutes with it).  The recursion operators
are assembled row-wise from the completed square of forms

    K1: (dP, dQ, dR)    K2: (dQ, dS, dT)    K3: (dR, dT, dV)

and the scaling field X has a-components equal to the point itself.

The free parameters obey two linear sum rules (fixing sigma1 and sigma0 from
sigma2 for the m = 2 family with eta = (+1, -1)); the remaining nonlinear
symmetry condition sigma23*(K3 dQ) = K3 dQ factors through the scalar
Phi(alpha, beta, sigma2), whose roots give genuine complexes.

Here m counts the one-form terms sigma_k; it is not the 1/m weight of the
Veselov potential in ``wdvv``.  The (alpha, beta) = (2, 1) complex realizes
the Veselov potential with 1/m = 1, scaled by 1/16: its Euler contraction
with lambda = x is the inverse Hessian of A, [[3/4,-1/4,-1/4],...].
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chartcore import (
    Chart,
    OneFormField,
    Permutation,
    SingularPointError,
    TensorField11,
    VectorFieldSpec,
    apply,
    constant_map,
    coords_of,
    covector_apply,
    covector_image,
    difference_rows,
    fd_check_one_form,
    fd_check_tensor,
    fd_check_vector_field,
    integrate_one_form,
    lenard_residuals,
    point_batch,
    pullback,
    transform_tensor,
    union_predicates,
)
from .report import VerificationReport
from .wdvv import (
    Prepotential,
    VeselovPotential,
    commutation_residuals,
    veselov_prepotential,
    worst_residual,
)

A_CHART = Chart("a", 3)
X_CHART = Chart("x", 3)

SIGMA_12 = Permutation.transposition(3, 0, 1)
SIGMA_13 = Permutation.transposition(3, 0, 2)
SIGMA_23 = Permutation.transposition(3, 1, 2)
TRANSPOSITIONS = ((SIGMA_12, 0, 1), (SIGMA_13, 0, 2), (SIGMA_23, 1, 2))

TOL_ANALYTIC = 1e-9
TOL_FD = 1e-6


class DegenerateParametersError(ValueError):
    """Quadratic invariant or family parameters outside the admissible set."""


# ---------------------------------------------------------------------------
# quadratic invariant and charts


@dataclass(frozen=True)
class QuadraticInvariant:
    """A = (alpha/2) sum a_i^2 + beta (a1 a2 + a2 a3 + a3 a1) on R^3.

    The product block is the full symmetric sum (S3 invariance forces the
    a3 a1 term).  Admissibility requires (alpha - beta)^2 (2 beta + alpha)
    to be nonzero, so the Hessian is invertible.  The Hessian and its inverse
    are symmetric, so for points a of shape (..., 3), ``a @ H`` is H a at
    every point.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        disc = (self.alpha - self.beta) ** 2 * (2 * self.beta + self.alpha)
        if abs(disc) < 1e-12:
            raise DegenerateParametersError(
                f"(alpha-beta)^2*(2*beta+alpha) = {disc:g} must be nonzero "
                f"(alpha={self.alpha:g}, beta={self.beta:g})"
            )

    def hessian(self) -> np.ndarray:
        return (self.alpha - self.beta) * np.eye(3) + self.beta * np.ones((3, 3))

    def hessian_inverse(self) -> np.ndarray:
        d = (self.alpha - self.beta) * (self.alpha + 2 * self.beta)
        return ((self.alpha + 2 * self.beta) * np.eye(3) - self.beta * np.ones((3, 3))) / d

    def value(self, a) -> np.ndarray:
        a = coords_of(a, 3)
        return 0.5 * np.sum((a @ self.hessian()) * a, axis=-1)

    def a_to_A(self, a) -> np.ndarray:
        return coords_of(a, 3) @ self.hessian()

    def A_to_a(self, big_a) -> np.ndarray:
        return coords_of(big_a, 3) @ self.hessian_inverse()

    def gradient_form(self) -> OneFormField:
        """dA = sum_i A_i da_i in the a-chart (exact by construction)."""
        h = self.hessian()
        return OneFormField(A_CHART, lambda a: a @ h, constant_map(h))


# ---------------------------------------------------------------------------
# parameters: sum rules and the symmetry-constraint scalar


def solve_sigma_constraints(alpha: float, beta: float, sigma2: float) -> tuple[float, float]:
    """Solve the two linear sum rules for (sigma1, sigma0), m = 2, eta = (+1, -1)."""
    QuadraticInvariant(alpha, beta)  # validate
    sigma1 = beta / (2 * (beta - alpha) * (2 * beta + alpha)) - sigma2
    sigma0 = (alpha + beta) / ((alpha - beta) * (2 * beta + alpha)) - 4 * sigma1 + 4 * sigma2
    return sigma1, sigma0


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the logarithmic family; the two sum rules are enforced.

    Sum rules (for any m):
        2 sum_k sigma_k                                = beta / ((beta-alpha)(2 beta+alpha))
        sigma0 + 2 sum_k (sigma_k/eta_k + sigma_k eta_k) = (alpha+beta) / ((alpha-beta)(2 beta+alpha))
    """

    quad: QuadraticInvariant
    sigma0: float
    sigmas: tuple[float, ...]
    etas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sigmas) != len(self.etas):
            raise ValueError("sigmas and etas must have equal length")
        if any(e == 0 for e in self.etas):
            raise DegenerateParametersError("every eta_k must be nonzero")
        a, b = self.quad.alpha, self.quad.beta
        rhs_c = b / ((b - a) * (2 * b + a))
        rhs_d = (a + b) / ((a - b) * (2 * b + a))
        lhs_c = 2 * sum(self.sigmas)
        lhs_d = self.sigma0 + 2 * sum(s / e + s * e for s, e in zip(self.sigmas, self.etas))
        if abs(lhs_c - rhs_c) > 1e-10 or abs(lhs_d - rhs_d) > 1e-10:
            raise ValueError(
                f"parameters violate the sum rules: "
                f"{lhs_c:.12g} vs {rhs_c:.12g}, {lhs_d:.12g} vs {rhs_d:.12g}"
            )

    @classmethod
    def solve(cls, alpha: float, beta: float, sigma2: float) -> "FamilyParams":
        sigma1, sigma0 = solve_sigma_constraints(alpha, beta, sigma2)
        return cls(QuadraticInvariant(alpha, beta), sigma0, (sigma1, sigma2), (1.0, -1.0))

    @property
    def sigma1(self) -> float:
        return self.sigmas[0]

    @property
    def sigma2(self) -> float:
        return self.sigmas[1]


def phi(alpha: float, beta: float, sigma2: float) -> float:
    """Obstruction scalar of the symmetry condition sigma23*(K3 dQ) = K3 dQ."""
    QuadraticInvariant(alpha, beta)  # validate
    f1 = 2 * alpha * beta * sigma2 + 2 * alpha**2 * sigma2 - 4 * beta**2 * sigma2 + beta
    f2 = 8 * alpha * beta * sigma2 + 8 * alpha**2 * sigma2 - 16 * beta**2 * sigma2 \
        + alpha + 3 * beta
    return 2 * beta * f1 * f2 / ((alpha - beta) ** 2 * (2 * beta + alpha) ** 2)


def psi(big_a) -> np.ndarray:
    """Psi(A) = (A1 A2 + A2 A3 + A3 A1) / ((A1+A2)(A2+A3)(A3+A1)) at every point."""
    big_a = coords_of(big_a, 3)
    a1, a2, a3 = np.moveaxis(big_a, -1, 0)
    den = (a1 + a2) * (a2 + a3) * (a3 + a1)
    pole = np.ravel(den == 0.0)
    if pole.any():
        raise SingularPointError(f"pole of Psi at A = {big_a.reshape(-1, 3)[np.argmax(pole)]}")
    return (a1 * a2 + a2 * a3 + a3 * a1) / den


PhiRoots = namedtuple("PhiRoots", ["root1", "root2"])


def solve_phi_roots(alpha: float, beta: float) -> PhiRoots:
    """Both sigma2 roots of phi(alpha, beta, .); each factor is linear in sigma2.

    beta = 0 makes phi vanish identically (every sigma2 admissible) and is
    reported as degenerate rather than solved.
    """
    QuadraticInvariant(alpha, beta)  # validate
    if beta == 0:
        raise DegenerateParametersError(
            "phi vanishes identically for beta = 0; every sigma2 satisfies "
            "the symmetry condition"
        )
    den = (alpha - beta) * (alpha + 2 * beta)
    roots = PhiRoots(-beta / (2 * den), -(alpha + 3 * beta) / (8 * den))
    for r in roots:
        if abs(phi(alpha, beta, r)) > 1e-12:
            raise ArithmeticError(f"root postcondition failed: phi = {phi(alpha, beta, r):g}")
    return roots


# ---------------------------------------------------------------------------
# the logarithmic one-forms, built in the A-chart and pushed to the a-chart


def _log_form(quad: QuadraticInvariant, terms: Sequence[tuple[float, np.ndarray]]) -> OneFormField:
    """sum of w * d(v.A)/(v.A) terms, expressed in the a-chart via A = H a.

    All terms are evaluated at once: with W the weights and D the directions
    (one per row), the coefficients are ((W / (A D^T)) D) H.
    """
    h = quad.hessian()
    weights = np.array([float(w) for w, _ in terms])
    dirs = np.array([np.asarray(v, dtype=float) for _, v in terms])

    def coeff(a: np.ndarray) -> np.ndarray:
        return ((weights / ((a @ h) @ dirs.T)) @ dirs) @ h

    def jac(a: np.ndarray) -> np.ndarray:
        s = (a @ h) @ dirs.T
        j = -(dirs.T * (weights / s**2)[..., None, :]) @ dirs
        return h @ j @ h

    return OneFormField(A_CHART, coeff, jac, union_predicates(dirs @ h))


def build_dQ(params: FamilyParams) -> OneFormField:
    terms = []
    for s, e in zip(params.sigmas, params.etas):
        terms.append((s, [1.0, e, 0.0]))
        terms.append((s, [e, 1.0, 0.0]))
    return _log_form(params.quad, terms)


def build_dP(params: FamilyParams) -> OneFormField:
    terms = [(params.sigma0, [1.0, 0.0, 0.0])]
    for s, e in zip(params.sigmas, params.etas):
        terms.append((s / e, [1.0, e, 0.0]))
        terms.append((s / e, [1.0, 0.0, e]))
        terms.append((s * e, [e, 1.0, 0.0]))
        terms.append((s * e, [e, 0.0, 1.0]))
    return _log_form(params.quad, terms)


# ---------------------------------------------------------------------------
# square completion and the complex


@dataclass(frozen=True, eq=False)
class EquivariantSquare:
    """The seven forms of an equivariant square, all in the a-chart."""

    dA: OneFormField
    dP: OneFormField
    dQ: OneFormField
    dR: OneFormField
    dT: OneFormField
    dS: OneFormField
    dV: OneFormField

    def form(self, j: int, l: int) -> OneFormField:
        """Square entry theta_{jl} = K_j K_l dA (0-based, symmetric)."""
        table = {
            (0, 0): self.dP, (0, 1): self.dQ, (0, 2): self.dR,
            (1, 1): self.dS, (1, 2): self.dT, (2, 2): self.dV,
        }
        return table[(min(j, l), max(j, l))]

    def named_forms(self) -> dict[str, OneFormField]:
        return {"dA": self.dA, "dP": self.dP, "dQ": self.dQ, "dR": self.dR,
                "dT": self.dT, "dS": self.dS, "dV": self.dV}


def _exchange_table(square: EquivariantSquare):
    """The exchange table: sigma_{jl} sends theta_{pq} to theta_{pi(p) pi(q)}.

    Yields (sigma_{jl}* theta_{pq}, theta_{pi(p) pi(q)}) for every
    transposition and every entry of the square.
    """
    for sig, _, _ in TRANSPOSITIONS:
        for p, q in itertools.combinations_with_replacement(range(3), 2):
            yield pullback(sig, square.form(p, q)), square.form(sig.mapping[p], sig.mapping[q])


def complete_square(dA: OneFormField, dP: OneFormField, dQ: OneFormField) -> EquivariantSquare:
    """Complete (dA, dP, dQ) to the full square by transposition pullbacks:
    dR, dT (orbit of dQ) and dS, dV (orbit of dP).  Nothing is evaluated; the
    square is equivariant only if sigma12*dA = dA, sigma12*dQ = dQ and
    sigma23*dP = dP, which :func:`verify_complex` checks.
    """
    return EquivariantSquare(
        dA=dA, dP=dP, dQ=dQ,
        dR=pullback(SIGMA_23, dQ),
        dT=pullback(SIGMA_13, dQ),
        dS=pullback(SIGMA_12, dP),
        dV=pullback(SIGMA_13, dP),
    )


def _tensor_from_rows(rows: Sequence[OneFormField]) -> TensorField11:
    """Tensor whose covector images of the coordinate differentials are ``rows``."""
    chart = rows[0].chart

    def mat(u: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(r.coeff(u), dtype=float) for r in rows], axis=-2)

    def jac(u: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(r.jac(u), dtype=float) for r in rows], axis=-3)

    return TensorField11(chart, mat, jac, union_predicates(*(r.predicates for r in rows)))


@dataclass(frozen=True, eq=False)
class LenardComplex:
    """Recursion operators, pivot form and scaling field in the a-chart."""

    params: FamilyParams
    square: EquivariantSquare
    operators: tuple[TensorField11, TensorField11, TensorField11]
    dA: OneFormField
    X: VectorFieldSpec

    @property
    def quad(self) -> QuadraticInvariant:
        return self.params.quad

    def sampling_predicates(self) -> np.ndarray:
        """The square's rows and the rows a_i - a_j, one per direction."""
        return union_predicates(*(f.predicates for f in self.square.named_forms().values()),
                                difference_rows(3))


def assemble_complex(params: FamilyParams) -> LenardComplex:
    dA = params.quad.gradient_form()
    square = complete_square(dA, build_dP(params), build_dQ(params))
    k1 = _tensor_from_rows([square.dP, square.dQ, square.dR])
    k2 = _tensor_from_rows([square.dQ, square.dS, square.dT])
    k3 = _tensor_from_rows([square.dR, square.dT, square.dV])
    x = VectorFieldSpec(A_CHART, lambda a: np.asarray(a, dtype=float), constant_map(np.eye(3)))
    return LenardComplex(params, square, (k1, k2, k3), dA, x)


# ---------------------------------------------------------------------------
# symmetry constraint and its split form


def k3_dq_form(cx: LenardComplex) -> OneFormField:
    return covector_image(cx.operators[2], cx.square.dQ)


def split_form_residual(cx: LenardComplex, p) -> float:
    """Worst residual over the points ``p`` of the factorized identity

        sigma23*(K3 dQ) - K3 dQ = Phi(alpha, beta, sigma2) Psi(A)
                                    (dA3/A3 - dA2/A2).
    """
    params = cx.params
    theta = k3_dq_form(cx)
    lhs = pullback(SIGMA_23, theta).coeff_at(p) - theta.coeff_at(p)
    big_a = params.quad.a_to_A(p)
    scalar = phi(params.quad.alpha, params.quad.beta, params.sigma2) * psi(big_a)
    a_chart = np.stack([np.zeros_like(big_a[..., 0]), -1.0 / big_a[..., 1],
                        1.0 / big_a[..., 2]], axis=-1)
    rhs = np.asarray(scalar)[..., None] * (a_chart @ params.quad.hessian())
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# verification


def third_tensor_from_square(cx: LenardComplex, p) -> np.ndarray:
    """c[..., j, l, m] = m-th x-chart coefficient of theta_{jl} at p (p in the a-chart).

    Row l of K_j is theta_{jl}, so c stacks the operator matrices.
    """
    a = coords_of(p, 3)
    return np.stack([k.mat_at(a) for k in cx.operators], axis=-3) @ cx.quad.hessian_inverse()


def third_tensor_from_chain(cx: LenardComplex, p) -> np.ndarray:
    """c[..., j, l, m] = dA(K_j K_l K_m X) at p; totally symmetric for a genuine complex."""
    a = coords_of(p, 3)
    mats = np.stack([k.mat_at(a) for k in cx.operators], axis=-3)  # [..., j, row, col]
    big_a = cx.dA.coeff_at(a)
    x = cx.X.comp_at(a)
    kx = np.einsum("...mcd,...d->...mc", mats, x)          # K_m X
    kkx = np.einsum("...lbc,...mc->...lmb", mats, kx)      # K_l K_m X
    kkkx = np.einsum("...jab,...lmb->...jlma", mats, kkx)  # K_j K_l K_m X
    return np.einsum("...a,...jlma->...jlm", big_a, kkkx)


def _symmetry_defect(c: np.ndarray) -> np.ndarray:
    """Largest deviation of c[..., j, l, m] from total symmetry, at every point."""
    return functools.reduce(np.maximum, (
        np.max(np.abs(c - np.einsum(f"...jlm->...{perm}", c)), axis=(-3, -2, -1))
        for perm in ("jml", "ljm", "lmj", "mjl", "mlj")))


def _require_within(defect: np.ndarray, tol: float, a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first point of ``a`` whose ``defect``
    exceeds ``tol`` or is NaN."""
    bad = ~(defect <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what} at {a.reshape(-1, 3)[k]} (defect {np.ravel(defect)[k]:.3e})")


def square_wdvv_residuals(cx: LenardComplex, p,
                          require_symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """WDVV commutation residuals of the square written in the x-chart, at
    every point of p (shape (..., 3), a-chart), and the mask of the points
    whose pivot c[0] is refused (their residual is NaN).

    The identification x-chart = A-chart is only valid when the vector chain
    condition K_j X = d/dA_j holds, so that is asserted first, to TOL_ANALYTIC.
    With ``require_symmetric`` the total symmetry of the coefficients is
    asserted too; callers that report the symmetry defect separately may
    disable it.  Either assertion raises ValueError naming the first point
    that fails it.
    """
    a = coords_of(p, 3)
    hinv = cx.quad.hessian_inverse()
    x = cx.X.comp_at(a)
    chain_defect = functools.reduce(np.maximum, (
        np.max(np.abs(apply(k.mat_at(a), x) - hinv[j]), axis=-1)
        for j, k in enumerate(cx.operators)))
    _require_within(chain_defect, TOL_ANALYTIC, a,
                    "no x-chart, hence no WDVV residual: the vector chain condition fails")
    c = third_tensor_from_square(cx, a)
    if require_symmetric:
        _require_within(_symmetry_defect(c), 1e-6, a,
                        "the square coefficients are not totally symmetric")
    return commutation_residuals(c, c[..., 0, :, :])


def wdvv_residual_of_complex(cx: LenardComplex, p, require_symmetric: bool = True) -> float:
    """The worst of :func:`square_wdvv_residuals` over the points p; raises
    SingularSliceError naming the first point whose pivot c[0] is refused."""
    return worst_residual(*square_wdvv_residuals(cx, p, require_symmetric),
                          "pivot slice c[0]", p)


# verify_complex's conditions in report order
_CONDITIONS = (
    "chain_of_forms", "chain_of_vector_fields", "vector_field_commutators",
    "square_closure", "operator_commutators", "third_tensor_symmetry",
    "haantjes_torsion", "symmetry_constraint", "partition_of_identity",
    "k2dR_equals_k3dQ", "operator_exchange", "square_equivariance",
    "jacobian_fd_agreement",
)


def verify_complex(cx: LenardComplex, points: Sequence, tol_analytic: float = TOL_ANALYTIC,
                   tol_fd: float = TOL_FD) -> VerificationReport:
    """Check every defining identity of the complex at the given points.

    This is the only check of the square's symmetries: the exchange table
    sigma_{jl}* theta_{pq} = theta_{pi(p) pi(q)} (``square_equivariance``)
    and sigma23*(K3 dQ) = K3 dQ (``symmetry_constraint``).  Every field is
    evaluated once over the whole (N, 3) batch of points; residuals are
    NaN-propagating maxima over points (order-independent), one report
    condition per identity family.  The square forms are the operators'
    rows, so the FD check covers dA, the three operators and X.
    """
    pts = point_batch(points, 3)
    hinv = cx.quad.hessian_inverse()
    forms = list(cx.square.named_forms().values())
    theta = k3_dq_form(cx)
    theta_pulled = pullback(SIGMA_23, theta)
    exchanged = [(transform_tensor(sig, cx.operators[j]), cx.operators[l])
                 for sig, j, l in TRANSPOSITIONS]
    table = list(_exchange_table(cx.square))
    eye = np.eye(3)

    def gap(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.max(np.abs(x - y)))

    def extras(a: np.ndarray, mats: list[np.ndarray]) -> Iterator[tuple[str, float]]:
        big_a = cx.dA.coeff_at(a)
        for j in range(3):
            yield "chain_of_forms", gap(covector_apply(big_a, mats[j]), eye[j])
            yield "chain_of_vector_fields", gap(apply(mats[j], a), hinv[j])
        c = third_tensor_from_chain(cx, a)
        yield "third_tensor_symmetry", float(np.max(
            _symmetry_defect(c) / np.maximum(1.0, np.max(np.abs(c), axis=(-3, -2, -1)))))
        yield "symmetry_constraint", gap(theta_pulled.coeff_at(a), theta.coeff_at(a))
        yield "partition_of_identity", gap(
            sum(big_a[..., i, None, None] * mats[i] for i in range(3)), eye)
        # dQ and dR are rows 1 and 2 of K1
        yield "k2dR_equals_k3dQ", gap(covector_apply(mats[0][..., 2, :], mats[1]),
                                      covector_apply(mats[0][..., 1, :], mats[2]))
        for moved, target in exchanged:
            yield "operator_exchange", gap(moved.mat_at(a), target.mat_at(a))
        for moved, target in table:
            yield "square_equivariance", gap(moved.coeff_at(a), target.coeff_at(a))
        yield "jacobian_fd_agreement", fd_check_one_form(cx.dA, a)
        for k in cx.operators:
            yield "jacobian_fd_agreement", fd_check_tensor(k, a)
        yield "jacobian_fd_agreement", fd_check_vector_field(cx.X, a)

    worst = lenard_residuals(cx.operators, cx.X, forms, pts, extras)
    report = VerificationReport()
    for name in _CONDITIONS:
        tol = tol_fd if name == "jacobian_fd_agreement" else tol_analytic
        report.add(name, len(pts), worst[name], tol)
    return report


# ---------------------------------------------------------------------------
# matrix potential reconstruction


def square_form_in_x(cx: LenardComplex, j: int, l: int) -> OneFormField:
    """theta_{jl} rewritten on the x-chart (x = A-coordinates)."""
    hinv = cx.quad.hessian_inverse()
    form = cx.square.form(j, l)

    def coeff(x: np.ndarray) -> np.ndarray:
        return np.asarray(form.coeff(x @ hinv), dtype=float) @ hinv

    def jac(x: np.ndarray) -> np.ndarray:
        return hinv @ np.asarray(form.jac(x @ hinv), dtype=float) @ hinv

    return OneFormField(X_CHART, coeff, jac, form.predicates @ hinv)


def reconstruct_potential_entry(cx: LenardComplex, j: int, l: int, x_from, x_to) -> float:
    """A_{jl}(x_to) - A_{jl}(x_from) by line integration of theta_{jl} in x.

    The straight segment must stay clear of every singular locus; a sign
    change of any regularity predicate along the path raises.
    """
    return integrate_one_form(square_form_in_x(cx, j, l), x_from, x_to)


# ---------------------------------------------------------------------------
# the (2, 1) reference family


def example3_params() -> FamilyParams:
    """The alpha=2, beta=1 family at the first root, sigma2 = -1/8
    (hence sigma1 = 0, sigma0 = 1/4)."""
    return FamilyParams.solve(2.0, 1.0, -0.125)


def example3_fixture() -> tuple[FamilyParams, Prepotential]:
    """Parameters plus the closed-form reference potential of that family,

        F = (1/16) [ sum_{i<j} (x_i-x_j)^2 log(x_i-x_j)^2 + sum_i x_i^2 log x_i^2 ],

    whose second-derivative differentials reproduce the square forms.
    """
    reference = veselov_prepotential(VeselovPotential(3, 1.0), scale=1.0 / 16.0)
    return example3_params(), reference


def example3_display_forms() -> dict:
    """Closed-form a-chart coefficient displays of the (2,1) family square.

    These are the hand-simplified rational expressions for the seven forms.
    The first dP numerator must contain -2*a1*a3 (its -2*a2*a3 variant is not
    a closed form); dS and dV follow from dP by the coordinate exchanges.
    Each display takes points of shape (..., 3).
    """
    def coords(a):
        return np.moveaxis(np.asarray(a, dtype=float), -1, 0)

    def form(*comps):
        return np.stack(np.broadcast_arrays(*comps), axis=-1)

    def dA(a):
        a1, a2, a3 = coords(a)
        return form(2 * a1 + a2 + a3, a1 + 2 * a2 + a3, a1 + a2 + 2 * a3)

    def dQ(a):
        a1, a2, a3 = coords(a)
        return form(-0.25 / (a1 - a2), 0.25 / (a1 - a2), 0.0)

    def dR(a):
        a1, a2, a3 = coords(a)
        return form(-0.25 / (a1 - a3), 0.0, 0.25 / (a1 - a3))

    def dT(a):
        a1, a2, a3 = coords(a)
        return form(0.0, -0.25 / (a2 - a3), 0.25 / (a2 - a3))

    def dP(a):
        a1, a2, a3 = coords(a)
        x1 = 2 * a1 + a2 + a3
        return form(
            (6 * a1**2 - 2 * a1 * a2 - 2 * a1 * a3 - a2**2 - a3**2)
            / (4 * x1 * (a1 - a2) * (a1 - a3)),
            -(2 * a2 + a1 + a3) / (4 * x1 * (a1 - a2)),
            -(2 * a3 + a1 + a2) / (4 * x1 * (a1 - a3)),
        )

    def dS(a):
        a1, a2, a3 = coords(a)
        x2 = 2 * a2 + a1 + a3
        return form(
            -(2 * a1 + a2 + a3) / (4 * x2 * (a2 - a1)),
            (6 * a2**2 - 2 * a2 * a3 - 2 * a2 * a1 - a3**2 - a1**2)
            / (4 * x2 * (a2 - a1) * (a2 - a3)),
            -(2 * a3 + a2 + a1) / (4 * x2 * (a2 - a3)),
        )

    def dV(a):
        a1, a2, a3 = coords(a)
        x3 = 2 * a3 + a1 + a2
        return form(
            -(2 * a1 + a2 + a3) / (4 * x3 * (a3 - a1)),
            -(2 * a2 + a1 + a3) / (4 * x3 * (a3 - a2)),
            (6 * a3**2 - 2 * a3 * a1 - 2 * a3 * a2 - a1**2 - a2**2)
            / (4 * x3 * (a3 - a1) * (a3 - a2)),
        )

    return {"dA": dA, "dQ": dQ, "dR": dR, "dT": dT, "dP": dP, "dS": dS, "dV": dV}


#: Constant a-chart components of the iterated fields K_j X for the (2,1)
#: family: the rows of the inverse Hessian of A.
EXAMPLE3_CHAIN_FIELDS = np.array([
    [0.75, -0.25, -0.25],
    [-0.25, 0.75, -0.25],
    [-0.25, -0.25, 0.75],
])
