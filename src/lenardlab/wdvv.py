"""Prepotentials, the logarithmic Veselov family, and WDVV commutation residuals.

A prepotential is handled through its value, Hessian h and third-derivative
tensor c (c[j, l, m] = d^3 F / dx_j dx_l dx_m, totally symmetric).  The WDVV
residual measures failure of

    c_j h1^{-1} c_l  =  c_l h1^{-1} c_j,         h1 = c[0],

and the generalized residual replaces h1 by g = sum_k lambda_k c_k.  Both are
normalized by the product of operand norms so thresholds are scale-free.

All logarithms appear as log u^2 = 2 log |u|; u = 0 is excluded by the
regularity predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcore import Chart, check_regular, coords_of, nan_max, pairwise_indices

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
    """A scalar potential with analytic Hessian and third derivatives."""

    chart: Chart
    value: Callable[[np.ndarray], float]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    predicates: tuple = ()

    def value_at(self, p) -> float:
        u = coords_of(p, self.chart.dim)
        check_regular(self.predicates, u)
        return float(self.value(u))

    def hessian_at(self, p) -> np.ndarray:
        u = coords_of(p, self.chart.dim)
        check_regular(self.predicates, u)
        return np.asarray(self.hessian(u), dtype=float)

    def third_at(self, p) -> np.ndarray:
        u = coords_of(p, self.chart.dim)
        check_regular(self.predicates, u)
        return np.asarray(self.third(u), dtype=float)

    def scaled(self, s: float) -> "Prepotential":
        return Prepotential(
            self.chart,
            lambda u: s * self.value(u),
            lambda u: s * np.asarray(self.hessian(u), dtype=float),
            lambda u: s * np.asarray(self.third(u), dtype=float),
            self.predicates,
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

    def predicates(self) -> tuple:
        preds = [(lambda x, i=i: x[i]) for i in range(self.n)]
        preds += [(lambda x, i=i, j=j: x[i] - x[j]) for i, j in pairwise_indices(self.n)]
        return tuple(preds)


def veselov_value(pot: VeselovPotential, x) -> float:
    x = coords_of(x, pot.n)
    total = 0.0
    for i, j in pairwise_indices(pot.n):
        u = x[i] - x[j]
        total += u * u * np.log(u * u)
    for i in range(pot.n):
        total += (1.0 / pot.m) * x[i] ** 2 * np.log(x[i] ** 2)
    return float(total)


def veselov_gradient(pot: VeselovPotential, x) -> np.ndarray:
    """First derivatives; phi'(u) = 2u log u^2 + 2u for each logarithmic block."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)

    def dphi(u: float) -> float:
        return 2.0 * u * np.log(u * u) + 2.0 * u

    g = np.zeros(pot.n)
    for i, j in pairwise_indices(pot.n):
        v = dphi(x[i] - x[j])
        g[i] += v
        g[j] -= v
    for i in range(pot.n):
        g[i] += (1.0 / pot.m) * dphi(x[i])
    return g


def veselov_hessian(pot: VeselovPotential, x) -> np.ndarray:
    """Closed form: off-diagonal -(2 log(x_i-x_j)^2 + 6); diagonal carries the
    row sums plus the (1/m)(2 log x_i^2 + 6) contribution."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)
    n = pot.n
    h = np.zeros((n, n))
    for i, j in pairwise_indices(n):
        v = -(2.0 * np.log((x[i] - x[j]) ** 2) + 6.0)
        h[i, j] = h[j, i] = v
    for i in range(n):
        h[i, i] = -sum(h[i, j] for j in range(n) if j != i) \
            + (1.0 / pot.m) * (2.0 * np.log(x[i] ** 2) + 6.0)
    return h


def veselov_third(pot: VeselovPotential, x) -> np.ndarray:
    """F_iij = -4/(x_i - x_j); F_iii closes the sum rule; mixed F_ijk = 0."""
    x = coords_of(x, pot.n)
    check_regular(pot.predicates(), x)
    n = pot.n
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                v = -4.0 / (x[i] - x[j])
                c[i, i, j] = c[i, j, i] = c[j, i, i] = v
    for i in range(n):
        c[i, i, i] = sum(4.0 / (x[i] - x[j]) for j in range(n) if j != i) \
            + (1.0 / pot.m) * 4.0 / x[i]
    return c


def veselov_prepotential(pot: VeselovPotential, scale: float = 1.0) -> Prepotential:
    chart = Chart("x", pot.n)
    base = Prepotential(
        chart,
        lambda u: veselov_value(pot, u),
        lambda u: veselov_hessian(pot, u),
        lambda u: veselov_third(pot, u),
        pot.predicates(),
    )
    return base if scale == 1.0 else base.scaled(scale)


@dataclass(frozen=True, eq=False)
class EulerWeights:
    """Components of the scaling vector field in the x-coordinates."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    @classmethod
    def constant(cls, lam) -> "EulerWeights":
        v = np.array(lam, dtype=float)
        return cls(lambda x: v, label="constant")

    @classmethod
    def proportional(cls, factor: float) -> "EulerWeights":
        return cls(lambda x: factor * np.asarray(x, dtype=float), label=f"{factor:g}*x")

    def at(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


#: lambda = x/4, the weighting used for the constant-matrix contraction checks.
QUARTER_X = EulerWeights.proportional(0.25)


def _guarded_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > MAX_PIVOT_COND:
        raise SingularSliceError(
            f"{what} has condition number {cond:.3e} (limit {MAX_PIVOT_COND:.0e}); "
            "the one-forms d(h_1l) must be linearly independent for the "
            "commutation residual to be meaningful"
        )
    return np.linalg.inv(mat)


def _commutation_residual(c: np.ndarray, pivot_inv: np.ndarray) -> float:
    pinv_norm = np.linalg.norm(pivot_inv)

    def pair(j: int, l: int) -> float:
        a = c[j] @ pivot_inv @ c[l]
        num = np.max(np.abs(a - a.T))
        den = max(1.0, np.linalg.norm(c[j]) * pinv_norm * np.linalg.norm(c[l]))
        return num / den

    return nan_max(pair(j, l) for j, l in pairwise_indices(c.shape[0]))


def wdvv_residual(pre: Prepotential, x) -> float:
    """Scale-free residual of the pairwise commutation with pivot c[0]."""
    c = pre.third_at(x)
    return _commutation_residual(c, _guarded_inverse(c[0], "pivot slice c[0]"))


def g_matrix(pre: Prepotential, weights: EulerWeights, x) -> np.ndarray:
    """g = sum_k lambda_k c_k; symmetric by total symmetry of c.

    For the Veselov family scaled by s and lambda = c x this is the constant

        g = 4 c s [ sum_{i<j} (e_i - e_j)(e_i - e_j)^T + (1/m) I ],

    because f'''(t) = 4/t for f(t) = t^2 log t^2, so each block w f(alpha.x)
    (w = 1 or 1/m) contracts to 4 c s w alpha alpha^T.  Thus m = 2 with
    lambda = x/4 gives [[5/2,-1,-1],...], and m = 1 scaled by 1/16 with
    lambda = x gives [[3/4,-1/4,-1/4],...].
    """
    c = pre.third_at(x)
    lam = weights.at(coords_of(x, pre.chart.dim))
    return np.einsum("k,kjl->jl", lam, c)


def generalized_wdvv_residual(pre: Prepotential, weights: EulerWeights, x) -> float:
    """Commutation residual with the Euler-weighted pivot g in place of c[0]."""
    c = pre.third_at(x)
    g = np.einsum("k,kjl->jl", weights.at(coords_of(x, pre.chart.dim)), c)
    return _commutation_residual(c, _guarded_inverse(g, "Euler-weighted pivot g"))
