"""Prepotentials, the logarithmic Veselov family, and WDVV commutation residuals.

A prepotential is handled through its value, Hessian h and third-derivative
tensor c (c[j, l, m] = d^3 F / dx_j dx_l dx_m, totally symmetric).  The WDVV
residual measures failure of

    c_j h1^{-1} c_l  =  c_l h1^{-1} c_j,         h1 = c[0],

and the generalized residual replaces h1 by g = sum_k lambda_k c_k, where the
Euler weights are a map x -> lambda(x) on points (..., n).  Both are
normalized by the product of operand norms so thresholds are scale-free.

Everything works on the point axis of :mod:`lenardlab.chartcore`: the
closed forms, the prepotential maps and the residuals take points of shape
(..., n), so a batch of N points is one call and a single point is the ()
case.  The residuals are computed per point, with pivots refused per point,
and reported as the NaN-propagating worst over the batch.

All logarithms appear as log u^2 = 2 log |u|; u = 0 is excluded by the
regularity predicates, the rows e_i and e_i - e_j, which every closed form
of the Veselov family checks once per batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcore import (
    Chart,
    check_regular,
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
class Prepotential:
    """A scalar potential with analytic Hessian and third derivatives.

    The maps take points of shape (..., n) and reject points outside their
    own domain, so each ``*_at`` call checks regularity once per batch,
    inside the map.
    """

    chart: Chart
    value: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]

    def value_at(self, p) -> np.ndarray:
        return np.asarray(self.value(coords_of(p, self.chart.dim)), dtype=float)

    def hessian_at(self, p) -> np.ndarray:
        return np.asarray(self.hessian(coords_of(p, self.chart.dim)), dtype=float)

    def third_at(self, p) -> np.ndarray:
        return np.asarray(self.third(coords_of(p, self.chart.dim)), dtype=float)

    def scaled(self, s: float) -> "Prepotential":
        return Prepotential(
            self.chart,
            lambda u: s * self.value(u),
            lambda u: s * np.asarray(self.hessian(u), dtype=float),
            lambda u: s * np.asarray(self.third(u), dtype=float),
        )


@dataclass(frozen=True)
class VeselovPotential:
    """F(x) = sum_{i<j} (x_i-x_j)^2 log(x_i-x_j)^2 + (1/m) sum_i x_i^2 log x_i^2."""

    n: int
    m: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.m == 0:
            raise ValueError("parameter m must be nonzero")
        object.__setattr__(self, "_rows", np.concatenate([np.eye(self.n), difference_rows(self.n)]))

    def predicates(self) -> np.ndarray:
        """The rows e_i and e_i - e_j: the hyperplanes x_i = 0 and x_i = x_j."""
        return self._rows


def veselov_value(pot: VeselovPotential, x) -> np.ndarray:
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)
    total = 0.0
    for i, j in pairwise_indices(pot.n):
        u = x[..., i] - x[..., j]
        total = total + u * u * np.log(u * u)
    for i in range(pot.n):
        total = total + (1.0 / pot.m) * x[..., i] ** 2 * np.log(x[..., i] ** 2)
    return total


def veselov_gradient(pot: VeselovPotential, x) -> np.ndarray:
    """First derivatives; phi'(u) = 2u log u^2 + 2u for each logarithmic block."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)

    def dphi(u: np.ndarray) -> np.ndarray:
        return 2.0 * u * np.log(u * u) + 2.0 * u

    g = np.zeros(x.shape)
    for i, j in pairwise_indices(pot.n):
        v = dphi(x[..., i] - x[..., j])
        g[..., i] += v
        g[..., j] -= v
    for i in range(pot.n):
        g[..., i] += (1.0 / pot.m) * dphi(x[..., i])
    return g


def veselov_hessian(pot: VeselovPotential, x) -> np.ndarray:
    """Closed form: off-diagonal -(2 log(x_i-x_j)^2 + 6); diagonal carries the
    row sums plus the (1/m)(2 log x_i^2 + 6) contribution."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)
    n = pot.n
    h = np.zeros(x.shape[:-1] + (n, n))
    for i, j in pairwise_indices(n):
        v = -(2.0 * np.log((x[..., i] - x[..., j]) ** 2) + 6.0)
        h[..., i, j] = h[..., j, i] = v
    for i in range(n):
        h[..., i, i] = -sum(h[..., i, j] for j in range(n) if j != i) \
            + (1.0 / pot.m) * (2.0 * np.log(x[..., i] ** 2) + 6.0)
    return h


def veselov_third(pot: VeselovPotential, x) -> np.ndarray:
    """F_iij = -4/(x_i - x_j); F_iii closes the sum rule; mixed F_ijk = 0."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)
    n = pot.n
    c = np.zeros(x.shape[:-1] + (n, n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                v = -4.0 / (x[..., i] - x[..., j])
                c[..., i, i, j] = c[..., i, j, i] = c[..., j, i, i] = v
    for i in range(n):
        c[..., i, i, i] = sum(4.0 / (x[..., i] - x[..., j]) for j in range(n) if j != i) \
            + (1.0 / pot.m) * 4.0 / x[..., i]
    return c


def veselov_prepotential(pot: VeselovPotential, scale: float = 1.0) -> Prepotential:
    chart = Chart("x", pot.n)
    base = Prepotential(
        chart,
        lambda u: veselov_value(pot, u),
        lambda u: veselov_hessian(pot, u),
        lambda u: veselov_third(pot, u),
    )
    return base if scale == 1.0 else base.scaled(scale)


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

    For the Veselov family scaled by s and lambda = c x this is the constant

        g = 4 c s [ sum_{i<j} (e_i - e_j)(e_i - e_j)^T + (1/m) I ],

    because f'''(t) = 4/t for f(t) = t^2 log t^2, so each block w f(alpha.x)
    (w = 1 or 1/m) contracts to 4 c s w alpha alpha^T.  Thus m = 2 with
    lambda = x/4 gives [[5/2,-1,-1],...], and m = 1 scaled by 1/16 with
    lambda = x gives [[3/4,-1/4,-1/4],...].
    """
    c = pre.third_at(x)
    return np.einsum("...k,...kjl->...jl", weights(coords_of(x, pre.chart.dim)), c)


def generalized_wdvv_residual(pre: Prepotential, weights: EulerWeights, x) -> float:
    """Commutation residual with the Euler-weighted pivot g in place of c[0],
    the worst over the points x of shape (..., n)."""
    c = pre.third_at(x)
    g = np.einsum("...k,...kjl->...jl", weights(coords_of(x, pre.chart.dim)), c)
    return worst_residual(*commutation_residuals(c, g), "Euler-weighted pivot g", x)
