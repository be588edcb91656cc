"""Independent oracles that only tests use.

The package compiles the square of an equivariant complex into a weight
tensor over nine directions (:mod:`lenardlab.equivariant`).  This module
builds the same square another way, with code the kernel does not share:
one closure per logarithmic form (:func:`log_form`), coordinate pullbacks of
forms (:func:`pullback`) and operators stacked from their rows
(:func:`tensor_from_rows`).  It also holds the maps that the package does
not need but tests read as references: the inverse of a permutation, the
quadratic invariant's value and inverse chart map, a prepotential's checked
value and its WDVV residuals at points, the transformation of a (1,1)-tensor under a permutation, and the GD
chain and square forms as fields.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab import wdvv

# ---------------------------------------------------------------------------
# coordinate permutations of fields


def inverse(sigma: cc.Permutation) -> cc.Permutation:
    """The permutation that undoes ``sigma``."""
    return cc.Permutation(tuple(int(k) for k in np.argsort(sigma.mapping)))


def pullback(sigma: cc.Permutation, omega: cc.Field) -> cc.Field:
    """Pull a one-form back along the coordinate permutation sigma.

    Coefficients transform as c'_m(u) = c_{sigma^{-1}(m)}(sigma(u)), which for
    transpositions is the familiar swap of both labels and arguments.
    """
    if sigma.dim != omega.chart.dim:
        raise cc.ChartMismatchError(
            f"permutation of dim {sigma.dim} on chart of dim {omega.chart.dim}")
    inv = inverse(sigma).index

    def coeff(u: np.ndarray) -> np.ndarray:
        return omega.coeff(sigma(u)).take(inv, axis=-1)

    def jac(u: np.ndarray) -> np.ndarray:
        return omega.jac(sigma(u)).take(inv, -1).take(inv, -2)

    return cc.Field(omega.chart, coeff, jac, omega.predicates.take(inv, axis=-1))


def transform_tensor(sigma: cc.Permutation, k: cc.Field) -> cc.Field:
    """Transform a (1,1)-tensor by the usual rule, (sigma K)(u) = K(sigma^{-1}u) conjugated."""
    if sigma.dim != k.chart.dim:
        raise cc.ChartMismatchError(
            f"permutation of dim {sigma.dim} on chart of dim {k.chart.dim}")
    inv = inverse(sigma)
    idx = sigma.index

    def coeff(u: np.ndarray) -> np.ndarray:
        return k.coeff(inv(u)).take(idx, -1).take(idx, -2)

    def jac(u: np.ndarray) -> np.ndarray:
        return k.jac(inv(u)).take(idx, -1).take(idx, -2).take(idx, -3)

    return cc.Field(k.chart, coeff, jac, k.predicates.take(idx, axis=-1))


# ---------------------------------------------------------------------------
# reference maps of the quadratic invariant and of prepotentials


def quadratic_value(quad: eq.QuadraticInvariant, a) -> np.ndarray:
    """A(a) = (1/2) a.H a at every point."""
    a = cc.coords_of(a, 3)
    return 0.5 * np.sum((a @ quad.hessian()) * a, axis=-1)


def A_to_a(quad: eq.QuadraticInvariant, big_a) -> np.ndarray:
    return cc.coords_of(big_a, 3) @ quad.hessian_inverse()


def value_at(pre, p) -> np.ndarray:
    """The prepotential's value at the points p, checked for regularity."""
    return pre.value(pre._regular(p))


def wdvv_residual_at(pre, x) -> float:
    """The prepotential's WDVV residual with pivot c[0] at the points x."""
    return wdvv.wdvv_residual(pre.third_at(x), x)


def g_matrix_at(pre, weights, x) -> np.ndarray:
    """The prepotential's Euler contraction g at the points x."""
    return wdvv.g_matrix(pre.third_at(x), weights, x)


def euler_residual_at(pre, weights, x) -> float:
    """The prepotential's WDVV residual with the Euler-weighted pivot g at
    the points x."""
    c = pre.third_at(x)
    return wdvv.generalized_wdvv_residual(c, wdvv.g_matrix(c, weights, x), x)


# ---------------------------------------------------------------------------
# the GD chain and square forms as fields


def chain_form(cx: gd.GDComplex, j: int) -> cc.Field:
    """theta_j = K_j dA."""
    return cc.covector_image(cx.operators[j], cx.dA)


def square_form(cx: gd.GDComplex, j: int, l: int) -> cc.Field:
    """theta_{jl} = K_j K_l dA."""
    return cc.covector_image(cx.operators[j], chain_form(cx, l))


# ---------------------------------------------------------------------------
# the equivariant square from closures


def log_form(quad: eq.QuadraticInvariant, terms: Sequence[tuple[float, np.ndarray]]) -> cc.Field:
    """sum of w * d(v.A)/(v.A) terms, expressed in the a-chart via A = H a.

    All terms are evaluated at once: with W the weights and D the directions
    (one per row), the coefficients are ((W / (A D^T)) D) H.
    """
    h = quad.hessian()
    weights = np.array([float(w) for w, _ in terms])
    dirs = np.array([v for _, v in terms], dtype=float)

    def coeff(a: np.ndarray) -> np.ndarray:
        return ((weights / ((a @ h) @ dirs.T)) @ dirs) @ h

    def jac(a: np.ndarray) -> np.ndarray:
        s = (a @ h) @ dirs.T
        j = -(dirs.T * (weights / s**2)[..., None, :]) @ dirs
        return h @ j @ h

    return cc.Field(eq.A_CHART, coeff, jac, dirs @ h)


def build_dQ(params: eq.FamilyParams) -> cc.Field:
    s1, s2 = params.sigma1, params.sigma2
    return log_form(params.quad, [(s1, [1.0, 1.0, 0.0]), (s1, [1.0, 1.0, 0.0]),
                                  (s2, [1.0, -1.0, 0.0]), (s2, [-1.0, 1.0, 0.0])])


def build_dP(params: eq.FamilyParams) -> cc.Field:
    s1, s2 = params.sigma1, params.sigma2
    return log_form(params.quad, [
        (params.sigma0, [1.0, 0.0, 0.0]),
        (s1, [1.0, 1.0, 0.0]), (s1, [1.0, 0.0, 1.0]),
        (s1, [1.0, 1.0, 0.0]), (s1, [1.0, 0.0, 1.0]),
        (-s2, [1.0, -1.0, 0.0]), (-s2, [1.0, 0.0, -1.0]),
        (-s2, [-1.0, 1.0, 0.0]), (-s2, [-1.0, 0.0, 1.0]),
    ])


def complete_square(dP: cc.Field, dQ: cc.Field) -> dict[str, cc.Field]:
    """The six forms of the square by name: dR, dT (orbit of dQ) and dS, dV
    (orbit of dP) by transposition pullbacks."""
    return {"dP": dP, "dQ": dQ, "dR": pullback(eq.SIGMA_23, dQ),
            "dS": pullback(eq.SIGMA_12, dP), "dT": pullback(eq.SIGMA_13, dQ),
            "dV": pullback(eq.SIGMA_13, dP)}


def tensor_from_rows(rows: Sequence[cc.Field]) -> cc.Field:
    """Tensor whose covector images of the coordinate differentials are ``rows``."""

    def coeff(u: np.ndarray) -> np.ndarray:
        return np.stack([r.coeff(u) for r in rows], axis=-2)

    def jac(u: np.ndarray) -> np.ndarray:
        return np.stack([r.jac(u) for r in rows], axis=-3)

    return cc.Field(rows[0].chart, coeff, jac, np.concatenate([r.predicates for r in rows]))


def closure_operators(params: eq.FamilyParams) -> tuple[cc.Field, cc.Field, cc.Field]:
    """K1, K2 and K3 stacked from the closure-built square: row l of K_j is theta_jl."""
    forms = complete_square(build_dP(params), build_dQ(params))
    names = {jl: name for name, jl in eq.SQUARE_FORMS.items()}
    return tuple(tensor_from_rows([forms[names[tuple(sorted((j, l)))]] for l in range(3)])
                 for j in range(3))


# ---------------------------------------------------------------------------
# the compiled square's forms as fields


def square_forms(cx: eq.LenardComplex) -> dict[str, cc.Field]:
    """dA and the six a-chart forms of the complex's weights, by name."""
    rows = eq.DIRECTIONS @ cx.quad.hessian()
    return {"dA": cx.dA, **{name: eq.log_field(eq.A_CHART, rows, cx.weights[:, j, l])
                            for name, (j, l) in eq.SQUARE_FORMS.items()}}
