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
prepotential maps take points of shape (..., n), so a batch of N points is
one call and a single point is the () case.  The residuals and g take the
third tensors c (..., n, n, n) at those points, so one evaluation of c
serves them all.  The residuals are computed per point, with pivots refused
per point, and reported as the NaN-propagating worst over the batch.  A
pivot is refused when its 2-norm condition number exceeds MAX_PIVOT_COND; a
Frobenius bound on it decides all but the pivots near that threshold, and
only those go to an SVD (:func:`_guarded_inverse`).

All logarithms appear as log u^2 = 2 log |u|; u = 0 is excluded by the
regularity predicates, which for a ∨-system are its rows c.  A
prepotential's ``*_at`` methods check them once per call; its raw maps do
not, so finite-difference stencils call those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcore import (
    Chart,
    _Predicated,
    coords_of,
    difference_rows,
    pairwise_indices,
    worst,
)

# Refuse WDVV pivots worse conditioned than this instead of amplifying noise.
MAX_PIVOT_COND = 1e8


class SingularSliceError(np.linalg.LinAlgError):
    """Raised when the commutation pivot is (numerically) singular: without
    an invertible pivot the normalized residual is meaningless."""


#: Why the pivot slice c[0] can be refused: it is invertible exactly when
#: the one-forms d(h_1l) are linearly independent.
C0_PIVOT_HINT = "the one-forms d(h_1l) must be linearly independent"


@dataclass(frozen=True, eq=False)
class Prepotential(_Predicated):
    """A scalar potential with analytic Hessian and third derivatives.

    Like a :class:`~lenardlab.chartcore.Field`, it stores its regularity
    ``predicates`` as (P, n) rows: the ``*_at`` methods check the points
    against them once per call, and the raw maps take points of shape
    (..., n) unchecked and keep their dtype.
    """

    chart: Chart
    value: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def hessian_at(self, p) -> np.ndarray:
        return self.hessian(self._regular(p))

    def third_at(self, p) -> np.ndarray:
        return self.third(self._regular(p))


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
    refused as non-finite, singular or of 2-norm condition number above
    MAX_PIVOT_COND; a refused pivot is inverted as the identity, so it spoils
    no other.

    The Frobenius condition number k_F = |P|_F |P^-1|_F bounds the 2-norm one,
    k_2 <= k_F <= n k_2, so k_F decides every pivot clear of the band
    (MAX_PIVOT_COND, n MAX_PIVOT_COND], and only the pivots in the band go
    to an SVD (``np.linalg.cond``).  k_F is formed from P/max|P| and
    max|P| P^-1, so it overflows at no scale of P.  An accepted pivot's
    inverse is the LU inverse ``np.linalg.inv`` gives it alone.

    Each pivot is factored once: only a batch with an exactly singular
    member, on which ``inv`` raises, is factored again by ``slogdet``
    (whose sign is 0 exactly when the LU is singular; det underflows on a
    scaled pivot) and inverted with those members replaced by the identity.
    Both use LAPACK's getrf, so the mask and the inverses do not depend on
    which path a batch takes.
    """
    n = mat.shape[-1]
    eye = np.eye(n)
    finite = np.isfinite(mat).all(axis=(-2, -1))
    if not finite.all():
        mat = np.where(finite[..., None, None], mat, eye)
    try:
        inv = np.linalg.inv(mat)
        singular = np.zeros_like(finite)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(mat)[0] == 0
        inv = np.linalg.inv(np.where(singular[..., None, None], eye, mat))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        size = np.max(np.abs(mat).reshape(*mat.shape[:-2], n * n), axis=-1)[..., None, None]
        kappa_f = _frobenius(mat / size) * _frobenius(size * inv)
    # k_F and the SVD's k_2 both carry a relative rounding error of about
    # k eps = 1e-8 at the threshold, and k_F - k_2 can be as small as 1/k_2
    # (n = 2): the bound decides only the pivots clear of that by 1e-6
    accept = kappa_f <= MAX_PIVOT_COND * (1.0 - 1e-6)
    refuse = ~finite | singular | (kappa_f > n * MAX_PIVOT_COND * (1.0 + 1e-6))
    band = ~(accept | refuse)
    if band.any():
        kappa_2 = np.ones(band.shape)
        kappa_2[band] = np.linalg.cond(mat[band])
        refuse = refuse | ~(kappa_2 <= MAX_PIVOT_COND)
    if refuse.any():
        inv = np.where(refuse[..., None, None], eye, inv)
    return inv, refuse


def _frobenius(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm over the last two axes: ``np.linalg.norm``'s own
    formula for it, bit for bit, without that function's dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))


def _commutation_residual(c: np.ndarray, pivot_inv: np.ndarray) -> np.ndarray:
    """The worst pair residual at every point of a stack (..., n, n, n) of
    third tensors; NaN wherever a pair residual is NaN.

    The products c_j P^-1 of every slice are one stacked matmul, and each
    pair's c_j P^-1 c_l is associated as (c_j P^-1) c_l.  Each is divided by
    |c_j| |P^-1| |c_l| itself, so the residual does not scale with c; where
    that product is 0, so is the numerator, and the residual reads 0.  (The
    smaller |c_j P^-1| |c_l| would raise rounding from k eps to k^2 eps for a
    pivot of condition number k.)"""
    n = c.shape[-1]
    j, l = np.array(list(pairwise_indices(n))).T
    cp = c @ pivot_inv[..., None, :, :]
    a = cp[..., j, :, :] @ c[..., l, :, :]
    # |a - a^T| is symmetric, so its entries on and above the diagonal hold
    # every value and every NaN of it
    r, s = np.triu_indices(n)
    num = np.max(np.abs(a[..., r, s] - a[..., s, r]), axis=-1)
    norm = _frobenius(c)
    size = norm[..., j] * _frobenius(pivot_inv)[..., None] * norm[..., l]
    return np.max(num / np.where(size == 0.0, 1.0, size), axis=-1)


def commutation_residuals(c: np.ndarray, pivot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale-free residuals of c_j P^{-1} c_l = c_l P^{-1} c_j at every point
    of a stack of third tensors c (..., n, n, n) with pivots P (..., n, n),
    and the mask of the points whose pivot is refused (NaN residual there)."""
    pivot_inv, rejected = _guarded_inverse(pivot)
    return np.where(rejected, np.nan, _commutation_residual(c, pivot_inv)), rejected


def worst_residual(residuals: np.ndarray, rejected: np.ndarray, what: str, points,
                   hint: str = "") -> float:
    """The largest of the per-point ``residuals``, NaN if any is NaN; raises
    SingularSliceError naming the pivot ``what`` and the first of ``points``
    whose pivot is refused, followed by ``hint``, what that pivot needs."""
    if rejected.any():
        point = np.reshape(points, (-1, np.shape(points)[-1]))[int(np.argmax(rejected))]
        why = f"; {hint} for the commutation residual to be meaningful" if hint else ""
        raise SingularSliceError(
            f"{what} at {point} is singular or has condition number above "
            f"{MAX_PIVOT_COND:.0e}{why}"
        )
    return worst(residuals)


def wdvv_residual(c: np.ndarray, x) -> float:
    """Scale-free residual of the pairwise commutation with pivot c[0], the
    worst over the points x of shape (..., n) whose third tensors are c
    (..., n, n, n)."""
    return worst_residual(*commutation_residuals(c, c[..., 0, :, :]), "pivot slice c[0]", x,
                          C0_PIVOT_HINT)


def g_matrix(c: np.ndarray, weights: EulerWeights, x) -> np.ndarray:
    """g = sum_k lambda_k c_k at the points x whose third tensors are c;
    symmetric by total symmetry of c.

    For a ∨-system (rows c, multiplicities h) the third derivative is
    sum_c (4 h_c / c.x) c (x) c (x) c, so lambda = x/4 contracts it to the
    constant

        g = sum_c h_c c (x) c.

    The Veselov family scaled by s has h = s/m on e_i and s on e_i - e_j,
    so g = s [ sum_{i<j} (e_i - e_j)(e_i - e_j)^T + (1/m) I ]: m = 2 gives
    [[5/2,-1,-1],...], and m = 1 scaled by 1/16 with lambda = x (four times
    x/4) gives [[3/4,-1/4,-1/4],...].
    """
    return np.einsum("...k,...kjl->...jl", weights(coords_of(x, c.shape[-1])), c)


def generalized_wdvv_residual(c: np.ndarray, g: np.ndarray, x) -> float:
    """Commutation residual of the third tensors c with the Euler-weighted
    pivot g (:func:`g_matrix`) in place of c[0], the worst over the points x
    of shape (..., n)."""
    return worst_residual(*commutation_residuals(c, g), "Euler-weighted pivot g", x)
