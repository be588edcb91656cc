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

Every form of the square is a sum of terms w d(v.A)/(v.A).  A transposition
pullback only permutes the directions v, and a term does not change when v
changes sign, so the whole square lives on the nine directions e_i, e_i + e_j
and e_i - e_j (``DIRECTIONS``).  It is stored as data: a weight tensor W of
shape (9, 3, 3), W[t, j, l] the weight of direction t in theta_jl (row l of
K_j).  Each operator is then one gemm over the nine terms (:func:`log_field`),
in the a-chart on the rows v H and in the x-chart (x = A) on the rows v.
W is the square's ∨-data: W[t] = 4 h_t v_t v_t^T, with the multiplicities
h = -sigma2/2 on e_i - e_j, sigma1/2 on e_i + e_j and sigma0/4 on e_i, so the
square is the third derivative of the B3-type prepotential
sum_t h_t (v_t.x)^2 log (v_t.x)^2.  Off the roots of Phi it still is; what
fails there is the ∨-condition.

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
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .chartcore import (
    Chart,
    Field,
    Permutation,
    SingularPointError,
    apply,
    closure_defect,
    constant_map,
    coords_of,
    covector_apply,
    difference_rows,
    fd_check_tensor,
    integrate_one_form,
    lenard_residuals,
    matmul_first,
    matmul_last,
    point_batch,
    predicate_rows,
    worst,
    worst_by_name,
)
from .report import VerificationReport
from .wdvv import (
    C0_PIVOT_HINT,
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
    to be finite and, relative to max(|alpha|, |beta|)^3, nonzero, so the
    Hessian is invertible at every scale.  The Hessian and its inverse are
    symmetric, so for points a of shape (..., 3), ``a @ H`` is H a at every
    point.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # products, not powers: float ** raises OverflowError where * gives
        # inf.  The nonzero test is relative to s = max(|alpha|, |beta|), so a
        # scaled copy of admissible parameters is admissible.  disc must not
        # underflow to 0 either: the sum rules and the inverse Hessian divide
        # by (alpha-beta)(2 beta+alpha), which is nonzero wherever disc is
        d, t = self.alpha - self.beta, 2 * self.beta + self.alpha
        disc = d * d * t
        s = max(abs(self.alpha), abs(self.beta))
        relative = (d / s) * (d / s) * (t / s) if s > 0 else 0.0
        if not (abs(relative) >= 1e-12 and 0.0 < abs(disc) < math.inf):
            raise DegenerateParametersError(
                f"(alpha-beta)^2*(2*beta+alpha) = {disc:g} must be finite and nonzero "
                f"relative to max(|alpha|, |beta|)^3 "
                f"(alpha={self.alpha:g}, beta={self.beta:g})"
            )

    def hessian(self) -> np.ndarray:
        return (self.alpha - self.beta) * np.eye(3) + self.beta * np.ones((3, 3))

    def hessian_inverse(self) -> np.ndarray:
        d = (self.alpha - self.beta) * (self.alpha + 2 * self.beta)
        return ((self.alpha + 2 * self.beta) * np.eye(3) - self.beta * np.ones((3, 3))) / d

    def a_to_A(self, a) -> np.ndarray:
        return coords_of(a, 3) @ self.hessian()

    def gradient_form(self) -> Field:
        """dA = sum_i A_i da_i in the a-chart (exact by construction)."""
        h = self.hessian()
        return Field(A_CHART, lambda a: a @ h, constant_map(h))


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
    sigma1 and sigma0 are derived by :func:`solve_sigma_constraints`.

    P = max(|sigma0|, |sigma1|, |sigma2|) s, s = max(|alpha|, |beta|), is
    refused above 1e40, so every product a report forms stays finite.  The
    largest is the Haantjes scale |M|^3 |dM|.  An operator entry sums nine
    terms w (vH)_m / (vH).a with |w| <= 2 P / s, |(vH)_m| <= 2 s and, at a
    sampled point, |(vH).a| >= 1e-3 (the regularity margin), so |M| <= 3.6e4 P,
    |dM| <= 7.2e7 P s and |M|^3 |dM| <= 3.4e21 P^4 s.  The discriminant
    test of :class:`QuadraticInvariant` gives s < 5.7e106, so that scale
    stays below 2e288, 1e20 inside the float range.  P is invariant under
    (lambda alpha, lambda beta, sigma2 / lambda); a root keeps it far inside
    the bound, at 1.7e3 for (1.0001, 1).
    """

    quad: QuadraticInvariant
    sigma2: float
    sigma1: float = field(init=False)
    sigma0: float = field(init=False)

    def __post_init__(self) -> None:
        sigma1, sigma0 = solve_sigma_constraints(self.quad.alpha, self.quad.beta, self.sigma2)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "sigma0", sigma0)
        scale = (max(abs(sigma0), abs(sigma1), abs(self.sigma2))
                 * max(abs(self.quad.alpha), abs(self.quad.beta)))
        if not scale <= 1e40:
            raise DegenerateParametersError(
                f"sigma weights (sigma0={sigma0:g}, sigma1={sigma1:g}, sigma2={self.sigma2:g}) "
                f"times max(|alpha|, |beta|) = {scale:g} must be at most 1e40")

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
# the square as data: weights over nine directions


# The square's directions up to sign: e_i, then e_i + e_j and e_i - e_j (i < j).
DIRECTIONS = np.concatenate([np.eye(3), np.abs(difference_rows(3)), difference_rows(3)])

#: The square forms by name, as (j, l): theta_jl is row l of K_j.
SQUARE_FORMS = {"dP": (0, 0), "dQ": (0, 1), "dR": (0, 2), "dS": (1, 1), "dT": (1, 2),
                "dV": (2, 2)}


def _slot_table(sigma: Permutation) -> np.ndarray:
    """slot[t]: the direction that is +-sigma(v_t).  A term w d(v.A)/(v.A)
    does not change when v changes sign, so the pullback by a transposition
    sigma moves the weights w[t] of a form to w[slot] (slot is an involution)."""
    moved = sigma(DIRECTIONS)[:, None]
    same = np.all(moved == DIRECTIONS, axis=-1) | np.all(moved == -DIRECTIONS, axis=-1)
    return np.argmax(same, axis=-1)


SLOTS = {sig: _slot_table(sig) for sig, _, _ in TRANSPOSITIONS}


def family_weights(params: FamilyParams) -> tuple[np.ndarray, np.ndarray]:
    """The weights of dP and dQ (module docstring) over DIRECTIONS, which are
    e1, e2, e3, e1+e2, e1+e3, e2+e3, e1-e2, e1-e3 and e2-e3; a term on -v
    counts on v."""
    s0, s1, s2 = params.sigma0, params.sigma1, params.sigma2
    dP = np.array([s0, 0, 0, 2 * s1, 2 * s1, 0, -2 * s2, -2 * s2, 0])
    dQ = np.array([0, 0, 0, 2 * s1, 0, 0, 2 * s2, 0, 0])
    return dP, dQ


def square_weights(dP: np.ndarray, dQ: np.ndarray) -> np.ndarray:
    """The weight tensor W (9, 3, 3) of the square: W[t, j, l] is the weight
    of direction t in theta_jl.  dR, dT (orbit of dQ) and dS, dV (orbit of
    dP) are transposition pullbacks, which permute the slots.  Nothing is
    checked: the square is equivariant only if sigma12*dQ = dQ and
    sigma23*dP = dP, which :func:`verify_complex` checks.
    """
    columns = {(0, 0): dP, (0, 1): dQ, (0, 2): dQ[SLOTS[SIGMA_23]],
               (1, 1): dP[SLOTS[SIGMA_12]], (1, 2): dQ[SLOTS[SIGMA_13]],
               (2, 2): dP[SLOTS[SIGMA_13]]}
    w = np.empty((len(DIRECTIONS), 3, 3))
    for (j, l), column in columns.items():
        w[:, j, l] = w[:, l, j] = column
    return w


def log_field(chart: Chart, rows: np.ndarray, weights: np.ndarray) -> Field:
    """The field sum_t weights[t] d(r_t . u)/(r_t . u) over the (T, dim) rows
    r_t, with components (*shape, dim) for weights (T, *shape): a one-form
    for weights (T,), an operator whose row l has the weights[:, l] for
    (T, dim).  The rows are its predicates.

    With f = 1/(u r^T), coeff is f @ B and jac is -(f f) @ B2, where
    B[t] = weights[t] (x) r_t and B2[t] = weights[t] (x) r_t (x) r_t: one
    gemm each.  Every r_t (x) r_t is symmetric, so the forms are closed.
    """
    rows = predicate_rows(rows, chart.dim)
    weights = np.asarray(weights, dtype=float)
    shape = weights.shape[1:] + (chart.dim,)
    b = np.einsum("t...,tm->t...m", weights, rows).reshape(len(rows), -1)
    # r_m r_d is r_d r_m bit for bit, so every block of B2 is exactly symmetric
    outer = rows[:, :, None] * rows[:, None, :]
    b2 = np.einsum("t...,tmd->t...md", weights, outer).reshape(len(rows), -1)

    def coeff(u: np.ndarray) -> np.ndarray:
        return ((1.0 / (u @ rows.T)) @ b).reshape(u.shape[:-1] + shape)

    def jac(u: np.ndarray) -> np.ndarray:
        f = 1.0 / (u @ rows.T)
        return (-(f * f) @ b2).reshape(u.shape[:-1] + shape + (chart.dim,))

    return Field(chart, coeff, jac, rows)


# ---------------------------------------------------------------------------
# the complex


@dataclass(frozen=True, eq=False)
class LenardComplex:
    """Recursion operators, pivot form and scaling field in the a-chart, and
    the square's weights W they are compiled from."""

    params: FamilyParams
    weights: np.ndarray
    operators: tuple[Field, Field, Field]
    dA: Field
    X: Field

    @property
    def quad(self) -> QuadraticInvariant:
        return self.params.quad

    def sampling_predicates(self) -> np.ndarray:
        """The square's rows and the rows a_i - a_j.  Some are parallel; of
        parallel rows the shortest decides the margin test."""
        return np.concatenate([DIRECTIONS @ self.quad.hessian(), difference_rows(3)])


def compile_complex(params: FamilyParams, weights: np.ndarray) -> LenardComplex:
    """The complex whose square has the weights W: row l of K_j is theta_jl,
    sum_t W[t, j, l] d(v_t.A)/(v_t.A) in the a-chart, where v_t.A = (v_t H).a."""
    rows = DIRECTIONS @ params.quad.hessian()
    operators = tuple(log_field(A_CHART, rows, weights[:, j]) for j in range(3))
    x = Field(A_CHART, lambda a: a, constant_map(np.eye(3)))
    return LenardComplex(params, weights, operators, params.quad.gradient_form(), x)


def assemble_complex(params: FamilyParams) -> LenardComplex:
    return compile_complex(params, square_weights(*family_weights(params)))


# ---------------------------------------------------------------------------
# symmetry constraint and its split form


def _symmetry_constraint(params: FamilyParams, a: np.ndarray, mats: Sequence[np.ndarray],
                         mats_23: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """sigma23*(K3 dQ) - K3 dQ at the points a, and its difference from the
    factorized form, from the operators at a and at sigma23(a) (dQ is row 1
    of K1; sigma23 is its own inverse, so its index permutes the pullback)."""
    theta, theta_23 = (covector_apply(m[0][..., 1, :], m[2]) for m in (mats, mats_23))
    defect = theta_23.take(SIGMA_23.index, axis=-1) - theta
    big_a = params.quad.a_to_A(a)
    scalar = phi(params.quad.alpha, params.quad.beta, params.sigma2) * psi(big_a)
    a_chart = np.stack([np.zeros_like(big_a[..., 0]), -1.0 / big_a[..., 1],
                        1.0 / big_a[..., 2]], axis=-1)
    rhs = np.asarray(scalar)[..., None] * (a_chart @ params.quad.hessian())
    return defect, defect - rhs


def split_form_residual(cx: LenardComplex, p) -> float:
    """Worst residual over the points ``p`` of the factorized identity

        sigma23*(K3 dQ) - K3 dQ = Phi(alpha, beta, sigma2) Psi(A)
                                    (dA3/A3 - dA2/A2).
    """
    a = coords_of(p, 3)
    mats, mats_23 = ([k.coeff_at(b) for k in cx.operators] for b in (a, SIGMA_23(a)))
    return worst(_symmetry_constraint(cx.params, a, mats, mats_23)[1])


# ---------------------------------------------------------------------------
# verification


def third_tensor_from_square(ops: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """c[..., j, l, m] = m-th x-chart coefficient of theta_{jl}, row l of K_j:
    the operator stack ops[..., j, row, col] times H^-1."""
    return ops @ hinv


def third_tensor_from_chain(ops: np.ndarray, big_a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c[..., j, l, m] = dA(K_j K_l K_m X) from the operator stack, dA and X at
    the same points; totally symmetric for a genuine complex."""
    kx = matmul_last(ops, x[..., :, None])[..., 0]   # [m, c]: K_m X
    kkx = matmul_last(ops, np.swapaxes(kx, -1, -2))  # [l, b, m]: K_l K_m X
    ka = covector_apply(big_a[..., None, :], ops)    # [j, b]: K_j dA
    return matmul_first(ka, np.swapaxes(kkx, -3, -2))


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
    mats = [k.coeff_at(a) for k in cx.operators]
    _require_within(_chain_defect(mats, cx.X.coeff_at(a), hinv), TOL_ANALYTIC, a,
                    "no x-chart, hence no WDVV residual: the vector chain condition fails")
    c = third_tensor_from_square(np.stack(mats, axis=-3), hinv)
    _require_within(_symmetry_defect(c), 1e-6, a,
                    "the square coefficients are not totally symmetric")
    return commutation_residuals(c, c[..., 0, :, :])


def wdvv_residual_of_complex(cx: LenardComplex, p) -> float:
    """The worst of :func:`square_wdvv_residuals` over the points p; raises
    SingularSliceError naming the first point whose pivot c[0] is refused."""
    return worst_residual(*square_wdvv_residuals(cx, p), "pivot slice c[0]", p, C0_PIVOT_HINT)


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
    operators, dA and X at a, each evaluated once.  Row l of K_j is
    theta_{jl}, so the operators' Jacobians are those of the square forms
    (``square_closure``), and this is the only check of the square's
    symmetries (``square_equivariance``, ``symmetry_constraint``): the
    weights W are data, and nothing in their construction makes them
    equivariant.  On a compiled square ``square_closure`` is 0 by
    construction, since every term's Jacobian is a multiple of the symmetric
    v v^T; what guards the Jacobians is the FD check.  It covers dA, the
    operators' rows l >= j (the six distinct square forms) and X, each field
    evaluated once per shifted batch, against those Jacobians.  The
    WDVV residual of the square is read against the constant Euler pivot
    H^-1/4 (lambda = x/4); it reads 1.0 at a point with no x-chart
    (``chain_of_vector_fields`` above TOL_ANALYTIC) or where the pivot is
    refused.  Each condition yields its residual array; :func:`worst_by_name`
    reduces them.
    """
    a = point_batch(points, 3)
    hinv = cx.quad.hessian_inverse()
    eye = np.eye(3)

    def stacked_rows(a: np.ndarray) -> np.ndarray:
        """dA, the distinct square forms theta_jl (j <= l), which are the
        rows l >= j of K_j, and X at the points a, as rows (..., 8, 3)."""
        return np.concatenate([cx.dA.coeff(a)[..., None, :],
                               *(k.coeff(a)[..., j:, :] for j, k in enumerate(cx.operators)),
                               cx.X.coeff(a)[..., None, :]], axis=-2)

    mats = [k.coeff_at(a) for k in cx.operators]
    jacs = [k.jac_at(a) for k in cx.operators]
    x, dx = cx.X.coeff_at(a), cx.X.jac_at(a)

    def own_conditions() -> Iterator[tuple[str, np.ndarray]]:
        moved = {sig: [k.coeff_at(sig(a)) for k in cx.operators] for sig, _, _ in TRANSPOSITIONS}
        ops = np.stack(mats, axis=-3)  # [..., j, row, col]
        big_a = cx.dA.coeff_at(a)
        jda = cx.dA.jac_at(a)
        chain_defect = _chain_defect(mats, x, hinv)
        yield "square_closure", closure_defect(jda)
        for jm in jacs:  # jm[..., l, :, :] is the Jacobian of theta_{jl}
            yield "square_closure", closure_defect(jm)
        for j in range(3):
            yield "chain_of_forms", covector_apply(big_a, mats[j]) - eye[j]
        yield "chain_of_vector_fields", chain_defect
        c = third_tensor_from_chain(ops, big_a, x)
        yield "third_tensor_symmetry", (
            _symmetry_defect(c) / np.maximum(1.0, np.max(np.abs(c), axis=(-3, -2, -1))))
        constraint, split = _symmetry_constraint(cx.params, a, mats, moved[SIGMA_23])
        yield "symmetry_constraint", constraint
        yield "split_form_identity", split
        yield "partition_of_identity", sum(big_a[..., i, None, None] * mats[i]
                                           for i in range(3)) - eye
        # dQ and dR are rows 1 and 2 of K1
        yield "k2dR_equals_k3dQ", (covector_apply(mats[0][..., 2, :], mats[1])
                                   - covector_apply(mats[0][..., 1, :], mats[2]))
        # sigma* theta_pq = theta_{sigma(p) sigma(q)} for the rows theta_pq of
        # K_p; sigma permutes the point and both axes by one index (it is its
        # own inverse), and p = j is the operator exchange sigma_jl K_j = K_l
        for sig, j, _ in TRANSPOSITIONS:
            idx = sig.index
            for p in range(3):
                residual = moved[sig][p].take(idx, -1) - mats[idx[p]].take(idx, -2)
                yield "square_equivariance", residual
                if p == j:
                    yield "operator_exchange", residual
        # the Euler pivot sum_k (x_k/4) c_k of the square's ∨-system is the
        # constant H^-1/4, invertible wherever H is, unlike the slice c[0]
        residuals, refused = commutation_residuals(third_tensor_from_square(ops, hinv), hinv / 4)
        # no x-chart or a refused pivot leaves no residual and reads 1.0; NaN stays NaN
        unread = (refused | (chain_defect > TOL_ANALYTIC)) & ~np.isnan(chain_defect)
        yield "wdvv_commutation_from_square", np.where(unread, 1.0, residuals)
        # the Jacobians of stacked_rows' rows; rows l >= j of K_j are theta_jl
        yield "jacobian_fd_agreement", fd_check_tensor(
            stacked_rows, [jda[..., None, :, :], *(jm[..., j:, :, :] for j, jm in enumerate(jacs)),
                           dx[..., None, :, :]], a)

    worst_of = worst_by_name(itertools.chain(lenard_residuals(mats, jacs, x, dx),
                                             own_conditions()))
    tols = {"jacobian_fd_agreement": tol_fd, "wdvv_commutation_from_square": 1e-8}
    report = VerificationReport()
    for name in _CONDITIONS:
        report.add(name, len(a), worst_of[name], tols.get(name, tol_analytic))
    return report


# ---------------------------------------------------------------------------
# matrix potential reconstruction


def square_form_in_x(cx: LenardComplex, j: int, l: int) -> Field:
    """theta_{jl} on the x-chart (x = A-coordinates), where its rows are
    the directions themselves: v.A = v.x."""
    return log_field(X_CHART, DIRECTIONS, cx.weights[:, j, l])


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
        return np.moveaxis(coords_of(a), -1, 0)

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
