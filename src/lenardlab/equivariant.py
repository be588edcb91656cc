"""Equivariant Lenard complexes on R^3 built from logarithmic one-form families.

The construction runs in two charts related by the constant Hessian H of an
S3-invariant quadratic A:

    A-coordinates  A = H a,          H = (alpha - beta) I + beta J,

with the one-form family defined in the A-chart,

    dQ = sigma1 [ 2 d(A1 + A2)/(A1 + A2) ]
         + sigma2 [ d(A1 - A2)/(A1 - A2) + d(A2 - A1)/(A2 - A1) ],
    dP = sigma0 dA1/A1
         + 2 sigma1 [ d(A1 + A2)/(A1 + A2) + d(A1 + A3)/(A1 + A3) ]
         - sigma2 [ d(A1 - A2)/(...) + d(A1 - A3)/(...)
                    + d(A2 - A1)/(...) + d(A3 - A1)/(...) ],

and everything converted to the a-chart, where the permutation action is the
plain coordinate transposition (H commutes with it).  The recursion operators
are assembled row-wise from the completed square of forms

    K1: (dP, dQ, dR)    K2: (dQ, dS, dT)    K3: (dR, dT, dV)

and the scaling field X has a-components equal to the point itself.

The family is fixed by (alpha, beta, sigma2): two linear sum rules give
sigma1 and sigma0, and the remaining nonlinear symmetry condition
sigma23*(K3 dQ) = K3 dQ factors through the scalar Phi(alpha, beta, sigma2),
whose roots give genuine complexes.  The (alpha, beta) = (2, 1) complex
realizes the Veselov potential of ``wdvv`` with 1/m = 1, scaled by 1/16: its
Euler contraction with lambda = x is the inverse Hessian of A,
[[3/4,-1/4,-1/4],...].
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field
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
    closure_residual,
    constant_map,
    coords_of,
    covector_apply,
    difference_rows,
    fd_check_one_form,
    fd_check_tensor,
    fd_check_vector_field,
    integrate_one_form,
    lenard_residuals,
    point_batch,
    pullback,
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
    """Solve the two linear sum rules for (sigma1, sigma0):

        2 (sigma1 + sigma2)            = beta / ((beta-alpha)(2 beta+alpha))
        sigma0 + 4 sigma1 - 4 sigma2   = (alpha+beta) / ((alpha-beta)(2 beta+alpha))
    """
    QuadraticInvariant(alpha, beta)  # validate
    sigma1 = beta / (2 * (beta - alpha) * (2 * beta + alpha)) - sigma2
    sigma0 = (alpha + beta) / ((alpha - beta) * (2 * beta + alpha)) - 4 * sigma1 + 4 * sigma2
    return sigma1, sigma0


@dataclass(frozen=True)
class FamilyParams:
    """The logarithmic family fixed by its quadratic invariant and sigma2;
    sigma1 and sigma0 are derived by :func:`solve_sigma_constraints`."""

    quad: QuadraticInvariant
    sigma2: float
    sigma1: float = field(init=False)
    sigma0: float = field(init=False)

    def __post_init__(self) -> None:
        sigma1, sigma0 = solve_sigma_constraints(self.quad.alpha, self.quad.beta, self.sigma2)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "sigma0", sigma0)

    @classmethod
    def solve(cls, alpha: float, beta: float, sigma2: float) -> "FamilyParams":
        return cls(QuadraticInvariant(alpha, beta), sigma2)


def _phi_factor_terms(alpha: float, beta: float, sigma2: float) -> tuple[tuple[float, ...], ...]:
    """The terms of the two factors of phi's numerator, each linear in sigma2."""
    return ((2 * alpha * beta * sigma2, 2 * alpha**2 * sigma2, -4 * beta**2 * sigma2, beta),
            (8 * alpha * beta * sigma2, 8 * alpha**2 * sigma2, -16 * beta**2 * sigma2,
             alpha, 3 * beta))


def phi(alpha: float, beta: float, sigma2: float) -> float:
    """Obstruction scalar of the symmetry condition sigma23*(K3 dQ) = K3 dQ."""
    QuadraticInvariant(alpha, beta)  # validate
    f1, f2 = (sum(terms) for terms in _phi_factor_terms(alpha, beta, sigma2))
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
    reported as degenerate rather than solved.  Root k zeroes factor k to
    rounding relative to the factor's largest term (phi divides the factors
    by (alpha - beta)^2 (2 beta + alpha)^2, so it is large near those lines).
    """
    QuadraticInvariant(alpha, beta)  # validate
    if beta == 0:
        raise DegenerateParametersError(
            "phi vanishes identically for beta = 0; every sigma2 satisfies "
            "the symmetry condition"
        )
    den = (alpha - beta) * (alpha + 2 * beta)
    roots = PhiRoots(-beta / (2 * den), -(alpha + 3 * beta) / (8 * den))
    for k, r in enumerate(roots):
        terms = _phi_factor_terms(alpha, beta, r)[k]
        if abs(sum(terms)) > 1e-12 * max(map(abs, terms)):
            raise ArithmeticError(f"root postcondition failed: factor {k + 1} = {sum(terms):g}")
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
    s1, s2 = params.sigma1, params.sigma2
    return _log_form(params.quad, [(s1, [1.0, 1.0, 0.0]), (s1, [1.0, 1.0, 0.0]),
                                   (s2, [1.0, -1.0, 0.0]), (s2, [-1.0, 1.0, 0.0])])


def build_dP(params: FamilyParams) -> OneFormField:
    s1, s2 = params.sigma1, params.sigma2
    return _log_form(params.quad, [
        (params.sigma0, [1.0, 0.0, 0.0]),
        (s1, [1.0, 1.0, 0.0]), (s1, [1.0, 0.0, 1.0]),
        (s1, [1.0, 1.0, 0.0]), (s1, [1.0, 0.0, 1.0]),
        (-s2, [1.0, -1.0, 0.0]), (-s2, [1.0, 0.0, -1.0]),
        (-s2, [-1.0, 1.0, 0.0]), (-s2, [-1.0, 0.0, 1.0]),
    ])


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
        """Square entry theta_{jl} = K_j K_l dA (0-based, symmetric): row l of K_j."""
        return ((self.dP, self.dQ, self.dR), (self.dQ, self.dS, self.dT),
                (self.dR, self.dT, self.dV))[j][l]

    def named_forms(self) -> dict[str, OneFormField]:
        return {"dA": self.dA, "dP": self.dP, "dQ": self.dQ, "dR": self.dR,
                "dT": self.dT, "dS": self.dS, "dV": self.dV}


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
    operators = tuple(_tensor_from_rows([square.form(j, l) for l in range(3)]) for j in range(3))
    x = VectorFieldSpec(A_CHART, lambda a: np.asarray(a, dtype=float), constant_map(np.eye(3)))
    return LenardComplex(params, square, operators, dA, x)


# ---------------------------------------------------------------------------
# symmetry constraint and its split form


def _symmetry_constraint(params: FamilyParams, a: np.ndarray, mats: Sequence[np.ndarray],
                         mats_23: Sequence[np.ndarray]) -> tuple[float, float]:
    """Worst |sigma23*(K3 dQ) - K3 dQ| over the points a, and its worst gap
    to the factorized form, from the operators at a and at sigma23(a) (dQ is
    row 1 of K1; sigma23 is its own inverse, so its index permutes the pullback)."""
    theta, theta_23 = (covector_apply(m[0][..., 1, :], m[2]) for m in (mats, mats_23))
    defect = theta_23.take(SIGMA_23.index, axis=-1) - theta
    big_a = params.quad.a_to_A(a)
    scalar = phi(params.quad.alpha, params.quad.beta, params.sigma2) * psi(big_a)
    a_chart = np.stack([np.zeros_like(big_a[..., 0]), -1.0 / big_a[..., 1],
                        1.0 / big_a[..., 2]], axis=-1)
    rhs = np.asarray(scalar)[..., None] * (a_chart @ params.quad.hessian())
    return float(np.max(np.abs(defect))), float(np.max(np.abs(defect - rhs)))


def split_form_residual(cx: LenardComplex, p) -> float:
    """Worst residual over the points ``p`` of the factorized identity

        sigma23*(K3 dQ) - K3 dQ = Phi(alpha, beta, sigma2) Psi(A)
                                    (dA3/A3 - dA2/A2).
    """
    a = coords_of(p, 3)
    mats, mats_23 = ([k.mat_at(b) for k in cx.operators] for b in (a, SIGMA_23(a)))
    return _symmetry_constraint(cx.params, a, mats, mats_23)[1]


# ---------------------------------------------------------------------------
# verification


def third_tensor_from_square(ops: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """c[..., j, l, m] = m-th x-chart coefficient of theta_{jl}, row l of K_j:
    the operator stack ops[..., j, row, col] times H^-1."""
    return ops @ hinv


def third_tensor_from_chain(ops: np.ndarray, big_a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c[..., j, l, m] = dA(K_j K_l K_m X) from the operator stack, dA and X at
    the same points; totally symmetric for a genuine complex."""
    kx = np.einsum("...mcd,...d->...mc", ops, x)          # K_m X
    kkx = np.einsum("...lbc,...mc->...lmb", ops, kx)      # K_l K_m X
    kkkx = np.einsum("...jab,...lmb->...jlma", ops, kkx)  # K_j K_l K_m X
    return np.einsum("...a,...jlma->...jlm", big_a, kkkx)


def _symmetry_defect(c: np.ndarray) -> np.ndarray:
    """Largest deviation of c[..., j, l, m] from total symmetry, at every point."""
    return functools.reduce(np.maximum, (
        np.max(np.abs(c - np.einsum(f"...jlm->...{perm}", c)), axis=(-3, -2, -1))
        for perm in ("jml", "ljm", "lmj", "mjl", "mlj")))


def _chain_defect(mats: Sequence[np.ndarray], x: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """Largest |K_j X - d/dA_j| at every point; the x-chart needs it zero."""
    return functools.reduce(np.maximum, (np.max(np.abs(apply(m, x) - hinv[j]), axis=-1)
                                         for j, m in enumerate(mats)))


def _require_within(defect: np.ndarray, tol: float, a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first point of ``a`` whose ``defect``
    exceeds ``tol`` or is NaN."""
    bad = ~(defect <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what} at {a.reshape(-1, 3)[k]} (defect {np.ravel(defect)[k]:.3e})")


def square_wdvv_residuals(cx: LenardComplex, p) -> tuple[np.ndarray, np.ndarray]:
    """WDVV commutation residuals of the square in the x-chart at every point
    of p (a-chart, shape (..., 3)), and the mask of refused pivots c[0] (NaN).

    The x-chart = A-chart needs the vector chain condition K_j X = d/dA_j,
    asserted first to TOL_ANALYTIC, then total symmetry of the coefficients
    to 1e-6; either raises ValueError naming the first point that fails it.
    """
    a = coords_of(p, 3)
    hinv = cx.quad.hessian_inverse()
    mats = [k.mat_at(a) for k in cx.operators]
    _require_within(_chain_defect(mats, cx.X.comp_at(a), hinv), TOL_ANALYTIC, a,
                    "no x-chart, hence no WDVV residual: the vector chain condition fails")
    c = third_tensor_from_square(np.stack(mats, axis=-3), hinv)
    _require_within(_symmetry_defect(c), 1e-6, a,
                    "the square coefficients are not totally symmetric")
    return commutation_residuals(c, c[..., 0, :, :])


def wdvv_residual_of_complex(cx: LenardComplex, p) -> float:
    """The worst of :func:`square_wdvv_residuals` over the points p; raises
    SingularSliceError naming the first point whose pivot c[0] is refused."""
    return worst_residual(*square_wdvv_residuals(cx, p), "pivot slice c[0]", p)


# verify_complex's conditions in report order
_CONDITIONS = (
    "chain_of_forms", "chain_of_vector_fields", "vector_field_commutators",
    "square_closure", "operator_commutators", "third_tensor_symmetry",
    "haantjes_torsion", "symmetry_constraint", "partition_of_identity",
    "k2dR_equals_k3dQ", "operator_exchange", "square_equivariance",
    "jacobian_fd_agreement", "wdvv_commutation_from_square", "split_form_identity",
)


def verify_complex(cx: LenardComplex, points: Sequence, tol_analytic: float = TOL_ANALYTIC,
                   tol_fd: float = TOL_FD) -> VerificationReport:
    """Check every defining identity of the complex at the given points.

    Every condition reads the operator matrices at the (N, 3) batch a and at
    sigma(a) for the three transpositions, and the Jacobians of the
    operators, dA and X at a, each evaluated once; the FD check makes its own
    calls.  Row l of K_j is theta_{jl}, so the operators' Jacobians are those
    of the square forms (``square_closure``), and this is the only check of
    the square's symmetries (``square_equivariance``, ``symmetry_constraint``).
    The WDVV residual of the square reads 1.0 at a point with no x-chart
    (``chain_of_vector_fields`` above TOL_ANALYTIC) or a refused pivot.
    Residuals are NaN-propagating maxima over points, in any order.
    """
    pts = point_batch(points, 3)
    hinv = cx.quad.hessian_inverse()
    eye = np.eye(3)

    def gap(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.max(np.abs(x - y)))

    def extras(a: np.ndarray, mats: list[np.ndarray],
               jacs: list[np.ndarray]) -> Iterator[tuple[str, float]]:
        moved = {sig: [k.mat_at(sig(a)) for k in cx.operators] for sig, _, _ in TRANSPOSITIONS}
        ops = np.stack(mats, axis=-3)  # [..., j, row, col]
        big_a = cx.dA.coeff_at(a)
        x = cx.X.comp_at(a)
        chain_defect = _chain_defect(mats, x, hinv)
        yield "square_closure", closure_residual(cx.dA, a)
        for jm in jacs:  # jm[..., l, :, :] is the Jacobian of theta_{jl}
            yield "square_closure", gap(jm, np.swapaxes(jm, -1, -2))
        for j in range(3):
            yield "chain_of_forms", gap(covector_apply(big_a, mats[j]), eye[j])
        yield "chain_of_vector_fields", float(np.max(chain_defect))
        c = third_tensor_from_chain(ops, big_a, x)
        yield "third_tensor_symmetry", float(np.max(
            _symmetry_defect(c) / np.maximum(1.0, np.max(np.abs(c), axis=(-3, -2, -1)))))
        constraint, split = _symmetry_constraint(cx.params, a, mats, moved[SIGMA_23])
        yield "symmetry_constraint", constraint
        yield "split_form_identity", split
        yield "partition_of_identity", gap(
            sum(big_a[..., i, None, None] * mats[i] for i in range(3)), eye)
        # dQ and dR are rows 1 and 2 of K1
        yield "k2dR_equals_k3dQ", gap(covector_apply(mats[0][..., 2, :], mats[1]),
                                      covector_apply(mats[0][..., 1, :], mats[2]))
        # sigma* theta_pq = theta_{sigma(p) sigma(q)} for the rows theta_pq of
        # K_p; sigma permutes the point and both axes by one index (it is its
        # own inverse), and p = j is the operator exchange sigma_jl K_j = K_l
        for sig, j, _ in TRANSPOSITIONS:
            idx = sig.index
            for p in range(3):
                residual = gap(moved[sig][p].take(idx, -1), mats[idx[p]].take(idx, -2))
                yield "square_equivariance", residual
                if p == j:
                    yield "operator_exchange", residual
        c = third_tensor_from_square(ops, hinv)
        residuals, refused = commutation_residuals(c, c[..., 0, :, :])
        # no x-chart or a refused pivot leaves no residual and reads 1.0; NaN stays NaN
        unread = (refused | (chain_defect > TOL_ANALYTIC)) & ~np.isnan(chain_defect)
        yield "wdvv_commutation_from_square", float(np.max(np.where(unread, 1.0, residuals)))
        yield "jacobian_fd_agreement", fd_check_one_form(cx.dA, a)
        for k in cx.operators:
            yield "jacobian_fd_agreement", fd_check_tensor(k, a)
        yield "jacobian_fd_agreement", fd_check_vector_field(cx.X, a)

    worst = lenard_residuals(cx.operators, cx.X, (), pts, extras)
    tols = {"jacobian_fd_agreement": tol_fd, "wdvv_commutation_from_square": 1e-8}
    report = VerificationReport()
    for name in _CONDITIONS:
        report.add(name, len(pts), worst[name], tols.get(name, tol_analytic))
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


def reconstruct_potential_entry(cx: LenardComplex, j: int, l: int, x_from, x_to):
    """A_{jl}(x_to) - A_{jl}(x_from) by line integration of theta_{jl} in x,
    one value per straight segment of the (..., 3) endpoints, all segments in
    one :func:`integrate_one_form` call.

    Every segment must stay clear of every singular locus; a sign change of
    any regularity predicate along a path raises.
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
