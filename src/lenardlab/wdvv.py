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

A 3 x 3 pivot, the only kind the CLI's n = 3 potentials make, is first
inverted in closed form, by the adjugate of P/max|P|.  Cramer's rule is not
forward stable, so the closed form only accepts: it keeps the pivots whose
Frobenius condition number is at most sqrt(MAX_PIVOT_COND), where its error
is at most the one LAPACK's inverse makes at the threshold, and whose det is
clear of rounding noise.  Every other pivot takes the LAPACK path alone
(:func:`_guarded_inverse`).
"""

from __future__ import annotations

import functools
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
# Accept a 3 x 3 pivot in closed form up to this Frobenius condition number
# (see _guarded_inverse); the LAPACK path decides the rest.
_CLOSED_FORM_COND = MAX_PIVOT_COND ** 0.5


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

    A 3 x 3 pivot is first inverted in closed form (:func:`_closed_form_inverse`)
    and accepted there when its Frobenius condition number k_F is at most
    _CLOSED_FORM_COND = sqrt(MAX_PIVOT_COND) = 1e4.  Every other pivot, and
    every pivot of another size, takes :func:`_lapack_guarded_inverse` on its
    own: the subset is inverted there and scattered back, so no pivot's path
    or bits depend on the other pivots of its stack.  The closed form never
    refuses; non-finite, zero, rank-one and ill-conditioned pivots all go to
    LAPACK.  So does every pivot whose unit det is below
    1/_CLOSED_FORM_COND^2, the least a pivot of k_F <= _CLOSED_FORM_COND can
    have: there the adjugate and the det can both be rounding noise, and a
    pivot singular but for rounding, such as a rank-one u v^T, reads any k_F.

    Why the bound is sqrt(MAX_PIVOT_COND) and not the threshold itself:
    Cramer's rule is not forward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., chapter 14).  For the unit pivot
    U = P/max|P|, with singular values about 1 >= s_2 >= s_3, the
    cofactor-expanded det carries a relative error of about
    eps/(s_2 s_3) <= eps k^2, so adj/det is off by that much in scale: at
    s = (1, 1e-5, 1e-8) it is 1.1e-4 off, about 5e3 k eps, where LU's
    inverse is off by about k eps.  The adjugate's direction is as accurate
    as LU's, and the commutation residual divides by |P^-1|, so only the
    scale matters.  Below k_F = sqrt(MAX_PIVOT_COND) that scale error is at
    most eps k_F^2 <= eps MAX_PIVOT_COND, the worst the LAPACK path already
    accepts at its threshold.  k_F cannot misjudge a pivot that far below it
    either, so every pivot accepted here is accepted by an SVD too.
    """
    if mat.shape[-1] != 3:
        return _lapack_guarded_inverse(mat)
    inv, kappa_f = _closed_form_inverse(mat)
    hard = ~(kappa_f <= _CLOSED_FORM_COND)
    refuse = np.zeros(hard.shape, dtype=bool)
    if hard.any():
        inv[hard], refuse[hard] = _lapack_guarded_inverse(mat[hard])
    return inv, refuse


# Entry 3 i + j of the adjugate of a 3 x 3 matrix u, flattened as u[3 r + s],
# is the cofactor u[j+1, i+1] u[j+2, i+2] - u[j+1, i+2] u[j+2, i+1] (indices
# mod 3): rows 0 and 1 of this table index the first product, rows 2 and 3
# the second.
_ADJUGATE = np.array([[3 * ((j + a) % 3) + (i + b) % 3 for i in range(3) for j in range(3)]
                      for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _closed_form_inverse(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (..., 3, 3) of pivots by Cramer's rule, and their
    Frobenius condition numbers k_F, read as inf wherever the unit det is
    below 1/_CLOSED_FORM_COND^2 or not a number (every singular or
    non-finite pivot).

    With U = P/max|P|, the inverse is (adj U / det U) / max|P|, det U by
    cofactor expansion along the first row, and k_F is formed from P/max|P|
    and max|P| P^-1 as the LAPACK path forms it, so it overflows at no
    scale of P and reads inf where the inverse does.  The nine entries are
    laid out as the leading axis, so every step is an elementwise operation
    over the points, in the same order whatever the stack holds.
    """
    batch = mat.shape[:-2]
    p = mat.reshape(-1, 9).T.reshape(9, *batch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # eight np.maximum calls take a third of the time of np.max over
        # the leading axis, and give the same bits
        size = functools.reduce(np.maximum, np.abs(p))
        unit = p / size
        t = unit[_ADJUGATE]
        adj = t[0] * t[1] - t[2] * t[3]
        det = unit[0] * adj[0] + unit[1] * adj[3] + unit[2] * adj[6]
        inv = adj / det / size
        scaled = size * inv
        # sum() adds the nine rows in order; a reduction over them
        # would sum a lone pivot pairwise, and a stack in order
        kappa_f = np.sqrt(sum(unit * unit)) * np.sqrt(sum(scaled * scaled))
    # s_1 >= max|U| = 1, so a pivot of k_F <= _CLOSED_FORM_COND has
    # |det U| = s_1 s_2 s_3 >= s_1^3 / k_2^2 >= 1/_CLOSED_FORM_COND^2
    kappa_f = np.where(np.abs(det) >= _CLOSED_FORM_COND ** -2, kappa_f, np.inf)
    # laid out as LAPACK's inverses are, so that matmul, which may choose its
    # kernel by the strides, treats a product alike whichever tier inverted
    # its pivot
    return np.ascontiguousarray(inv.reshape(9, -1).T).reshape(*batch, 3, 3), kappa_f


def _lapack_guarded_inverse(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_guarded_inverse` by LAPACK, for pivots of any size n: the
    inverses and the mask of the refused pivots (inverted as the identity).

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


@functools.cache
def _pair_tables(n: int) -> tuple[np.ndarray, ...]:
    """The pairs j < l of slices as two index arrays, and the row and column
    indices of the upper triangle of an n x n matrix, read-only since every
    call shares them."""
    tables = (*np.array(list(pairwise_indices(n))).T, *np.triu_indices(n))
    for table in tables:
        table.flags.writeable = False
    return tables


# The normal range of float64; a Frobenius norm squares its entries, so below
# _NORM_FLOOR its squares underflowed.
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_NORM_FLOOR = np.sqrt(_TINY)


def _commutation_residual(c: np.ndarray, pivot_inv: np.ndarray) -> np.ndarray:
    """The worst pair residual at every point of a stack (..., n, n, n) of
    third tensors; NaN wherever a pair residual is NaN.

    The products c_j P^-1 of every slice are one gemm per point, on c with
    its first two slice axes flattened, and each pair's c_j P^-1 c_l is
    associated as (c_j P^-1) c_l.  Each is divided by |c_j| |P^-1| |c_l|
    itself, so the residual does not scale with c; where that product is 0,
    so is the numerator, and the residual reads 0.  (The smaller
    |c_j P^-1| |c_l| would raise rounding from k eps to k^2 eps for a pivot
    of condition number k.)

    The norms square their entries, so they over- or underflow beyond a
    scale of about 1e+-154.  A point where one did, where their product left
    the normal range, or whose residual is not finite, is computed again
    with every slice c_j and P^-1 scaled by a power of two to a largest
    entry in [1/2, 1): the pair residual is homogeneous of degree 0 in each
    of them, and a power of two scales exactly, so its bits stay those of a
    normal scale."""
    # an extreme scale overflows a norm, or multiplies an overflowed one by
    # an underflowed one: this pass finds those points, the next mends them
    with np.errstate(over="ignore", invalid="ignore"):
        residual, norm, inv_norm, size = _pair_residual(c, pivot_inv)
        # one test over the whole stack first: at a normal scale every point
        # passes it (NaN fails every comparison)
        if (norm.min() >= _NORM_FLOOR and inv_norm.min() >= _NORM_FLOOR and size.min() >= _TINY
                and size.max() <= _HUGE and residual.max() < np.inf):
            return residual
        redo = ~((np.min(norm, axis=-1) >= _NORM_FLOOR) & (inv_norm >= _NORM_FLOOR)
                 & np.all((size >= _TINY) & (size <= _HUGE), axis=-1) & np.isfinite(residual))
    pivot_inv = np.broadcast_to(pivot_inv, c.shape[:-3] + pivot_inv.shape[-2:])
    residual = np.array(residual)
    residual[redo] = _pair_residual(_unit_scaled(c[redo]), _unit_scaled(pivot_inv[redo]))[0]
    return residual


def _pair_residual(c: np.ndarray, pivot_inv: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_commutation_residual` at every point, unscaled, with the norms
    |c_j| (..., n) and |P^-1| (...) and the pairs' products of norms it
    divides by."""
    n = c.shape[-1]
    j, l, r, s = _pair_tables(n)
    cp = (c.reshape(c.shape[:-3] + (n * n, n)) @ pivot_inv).reshape(c.shape)
    a = cp[..., j, :, :] @ c[..., l, :, :]
    # |a - a^T| is symmetric, so its entries on and above the diagonal hold
    # every value and every NaN of it
    num = np.max(np.abs(a[..., r, s] - a[..., s, r]), axis=-1)
    norm = _frobenius(c)
    inv_norm = _frobenius(pivot_inv)
    size = norm[..., j] * inv_norm[..., None] * norm[..., l]
    return np.max(num / np.where(size == 0.0, 1.0, size), axis=-1), norm, inv_norm, size


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """Each matrix of x (its last two axes) scaled by a power of two to a
    largest |entry| in [1/2, 1), exactly; a zero or non-finite one is left
    as it is."""
    exponent = np.frexp(np.max(np.abs(x), axis=(-2, -1)))[1]
    return np.ldexp(x, -exponent[..., None, None])


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
