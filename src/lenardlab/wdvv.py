"""Prepotentials of ∨-systems and WDVV commutation residuals.

A prepotential is handled through its value, Hessian and third-derivative
tensor c (c[j, l, m] = d^3 F / dx_j dx_l dx_m, totally symmetric).  Veselov's
logarithmic solutions all have one form, the ∨-system prepotential

    F(x) = sum_c h_c (c.x)^2 log (c.x)^2

over a set of covector rows c with multiplicities h_c
(:func:`vee_prepotential`).  The Veselov family is the case of the rows
e_i with h = 1/m and e_i - e_j with h = 1 (:func:`veselov_prepotential`).

The WDVV residual measures failure of

    c_j h1^{-1} c_l  =  c_l h1^{-1} c_j,         h1 = c[0],

and the generalized residual replaces h1 by g = sum_k lambda_k c_k, where the
Euler weights are a map x -> lambda(x) on points (..., n).  Both are
normalized by the product of operand norms so thresholds are scale-free.

Everything works on the point axis of :mod:`lenardlab.chartcore`: the
prepotential maps and the residuals take points of shape (..., n), so a
batch of N points is one call and a single point is the () case.  The
residuals are computed per point, with pivots refused per point, and
reported as the NaN-propagating worst over the batch.

All logarithms appear as log u^2 = 2 log |u|; u = 0 is excluded by the
regularity predicates, which for a ∨-system are its rows c.  A
prepotential's ``*_at`` methods check them once per call; its raw maps do
not, so finite-difference stencils call those.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcore import (
    Chart,
    _Field,
    coords_of,
    difference_rows,
    pairwise_indices,
)

# Refuse WDVV pivots worse conditioned than this instead of amplifying noise.
MAX_PIVOT_COND = 1e8


class SingularSliceError(np.linalg.LinAlgError):
    """Raised when the commutation pivot is (numerically) singular.

    The pivot slice c[0] is invertible exactly when the one-forms d(h_{1l})
    are linearly independent; without that the normalized residual is
    meaningless.
    """


@dataclass(frozen=True, eq=False)
class Prepotential(_Field):
    """A scalar potential with analytic Hessian and third derivatives.

    Like the fields of :mod:`lenardlab.chartcore`, it stores its regularity
    ``predicates`` as (P, n) rows: the ``*_at`` methods check the points
    against them once per call, and the raw maps take points of shape
    (..., n) unchecked.
    """

    chart: Chart
    value: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def value_at(self, p) -> np.ndarray:
        return np.asarray(self.value(self._regular(p)), dtype=float)

    def hessian_at(self, p) -> np.ndarray:
        return np.asarray(self.hessian(self._regular(p)), dtype=float)

    def third_at(self, p) -> np.ndarray:
        return np.asarray(self.third(self._regular(p)), dtype=float)


def vee_prepotential(rows, h) -> Prepotential:
    """The ∨-system prepotential F = sum_p h_p s_p^2 log s_p^2, s = x C^T, of
    the covector rows C (P, n) and the multiplicities h (P,).

    With f(t) = t^2 log t^2, f'' = 2 log t^2 + 6 and f''' = 4/t, so

        Hessian  sum_p h_p (2 log s_p^2 + 6) c_p (x) c_p,
        third    sum_p (4 h_p / s_p) c_p (x) c_p (x) c_p.

    The products of rows are formed once, here, and each map is one einsum
    over p: unlike a BLAS product, it gives a batch exactly the stack of its
    single points.  The rows are the regularity predicates.
    """
    rows = np.asarray(rows, dtype=float)
    h = np.asarray(h, dtype=float)
    cc = np.einsum("pi,pj->pij", rows, rows)
    ccc = np.einsum("pij,pk->pijk", cc, rows)

    def s(x: np.ndarray) -> np.ndarray:
        return np.einsum("...i,pi->...p", x, rows)

    def value(x: np.ndarray) -> np.ndarray:
        sx = s(x)
        s2 = sx * sx
        return np.einsum("...p,p->...", s2 * np.log(s2), h)

    def hessian(x: np.ndarray) -> np.ndarray:
        sx = s(x)
        return np.einsum("...p,pij->...ij", h * (2.0 * np.log(sx * sx) + 6.0), cc)

    def third(x: np.ndarray) -> np.ndarray:
        return np.einsum("...p,pijk->...ijk", 4.0 * h / s(x), ccc)

    return Prepotential(Chart("x", rows.shape[-1]), value, hessian, third, rows)


class InvalidPotentialError(ValueError):
    """Parameters that define no Veselov potential."""


@dataclass(frozen=True)
class VeselovPotential:
    """F(x) = sum_{i<j} (x_i-x_j)^2 log(x_i-x_j)^2 + (1/m) sum_i x_i^2 log x_i^2."""

    n: int
    m: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidPotentialError("need n >= 2")
        if self.m == 0:
            raise InvalidPotentialError("parameter m must be nonzero")


def veselov_prepotential(pot: VeselovPotential, scale: float = 1.0) -> Prepotential:
    """``pot`` times ``scale`` as a ∨-system: the rows e_i with h = scale/m,
    then e_i - e_j (i < j) with h = scale."""
    rows = np.concatenate([np.eye(pot.n), difference_rows(pot.n)])
    h = np.where(np.arange(len(rows)) < pot.n, 1.0 / pot.m, 1.0)
    return vee_prepotential(rows, scale * h)


#: Euler weights: the map from points (..., n) to the x-components (..., n) of
#: the scaling field; constant weights are ``chartcore.constant_map(lam)``.
EulerWeights = Callable[[np.ndarray], np.ndarray]


def QUARTER_X(x: np.ndarray) -> np.ndarray:
    """lambda = x/4, the weighting used for the constant-matrix contraction checks."""
    return 0.25 * x


def _guarded_inverse(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (..., n, n) of pivots, and the mask of the pivots
    refused as non-finite, singular or worse conditioned than MAX_PIVOT_COND;
    a refused pivot is inverted as the identity, so it spoils no other."""
    eye = np.eye(mat.shape[-1])
    finite = np.isfinite(mat).all(axis=(-2, -1))
    rejected = ~finite | ~(np.linalg.cond(np.where(finite[..., None, None], mat, eye))
                           <= MAX_PIVOT_COND)
    return np.linalg.inv(np.where(rejected[..., None, None], eye, mat)), rejected


def _commutation_residual(c: np.ndarray, pivot_inv: np.ndarray) -> np.ndarray:
    """The worst pair residual at every point of a stack (..., n, n, n) of
    third tensors; NaN wherever a pair residual is NaN."""
    pinv_norm = np.linalg.norm(pivot_inv, axis=(-2, -1))

    def pair(j: int, l: int) -> np.ndarray:
        cj, cl = c[..., j, :, :], c[..., l, :, :]
        a = cj @ pivot_inv @ cl
        num = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
        den = np.maximum(1.0, np.linalg.norm(cj, axis=(-2, -1)) * pinv_norm
                         * np.linalg.norm(cl, axis=(-2, -1)))
        return num / den

    return functools.reduce(np.maximum, (pair(j, l) for j, l in pairwise_indices(c.shape[-1])))


def commutation_residuals(c: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale-free residuals of c_j P^{-1} c_l = c_l P^{-1} c_j at every point
    of a stack of third tensors c (..., n, n, n) with pivots P (..., n, n),
    and the mask of the points whose pivot is refused (NaN residual there)."""
    pivot_inv, rejected = _guarded_inverse(pivot)
    return np.where(rejected, np.nan, _commutation_residual(c, pivot_inv)), rejected


def worst_residual(residuals: np.ndarray, rejected: np.ndarray, what: str, points) -> float:
    """The largest of the per-point ``residuals``, NaN if any is NaN; raises
    SingularSliceError naming the first of ``points`` whose pivot is refused."""
    if rejected.any():
        point = np.reshape(points, (-1, np.shape(points)[-1]))[int(np.argmax(rejected))]
        raise SingularSliceError(
            f"{what} at {point} is singular or has condition number above "
            f"{MAX_PIVOT_COND:.0e}; the one-forms d(h_1l) must be linearly "
            "independent for the commutation residual to be meaningful"
        )
    return float(np.max(residuals))


def wdvv_residual(pre: Prepotential, x) -> float:
    """Scale-free residual of the pairwise commutation with pivot c[0], the
    worst over the points x of shape (..., n)."""
    c = pre.third_at(x)
    return worst_residual(*commutation_residuals(c, c[..., 0, :, :]), "pivot slice c[0]", x)


def g_matrix(pre: Prepotential, weights: EulerWeights, x) -> np.ndarray:
    """g = sum_k lambda_k c_k at the points x; symmetric by total symmetry of c.

    For a ∨-system (rows c, multiplicities h) the third derivative is
    sum_c (4 h_c / c.x) c (x) c (x) c, so lambda = x/4 contracts it to the
    constant

        g = sum_c h_c c (x) c.

    The Veselov family scaled by s has h = s/m on e_i and s on e_i - e_j,
    so g = s [ sum_{i<j} (e_i - e_j)(e_i - e_j)^T + (1/m) I ]: m = 2 gives
    [[5/2,-1,-1],...], and m = 1 scaled by 1/16 with lambda = x (four times
    x/4) gives [[3/4,-1/4,-1/4],...].
    """
    c = pre.third_at(x)
    return np.einsum("...k,...kjl->...jl", weights(coords_of(x, pre.chart.dim)), c)


def generalized_wdvv_residual(pre: Prepotential, weights: EulerWeights, x) -> float:
    """Commutation residual with the Euler-weighted pivot g in place of c[0],
    the worst over the points x of shape (..., n)."""
    c = pre.third_at(x)
    g = np.einsum("...k,...kjl->...jl", weights(coords_of(x, pre.chart.dim)), c)
    return worst_residual(*commutation_residuals(c, g), "Euler-weighted pivot g", x)
