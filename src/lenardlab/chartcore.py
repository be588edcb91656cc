"""Charts, points, differentiable fields and the generic residual computations.

Everything lives on a fixed coordinate chart of R^n.  There is one kind of
field, :class:`Field`: a pair of callables, its components and their
analytic first derivatives.  A one-form and a vector field have components
of shape (dim,), a (1,1)-tensor field of shape (dim, dim); a function enters
only through its differential, a one-form.  All residuals below are computed
from the analytic derivatives; a complex-step derivative of the components
(:func:`fd_jacobian`) and second differences (:func:`fd_hessian`) serve only
as independent cross-checks.

Conventions, fixed once for the whole package:

* Points carry a leading point axis: every field callable takes an array
  of shape (..., dim) and broadcasts over the leading axes, so a batch of N
  points is one (N, dim) call and a single point is the () case of the same
  code.  Component shapes below are the trailing axes.
* A field's ``coeff`` maps points (..., dim) to components (..., *shape) and
  its ``jac`` maps them to (..., *shape, dim), the derivative index last:
  jac[..., d] = d coeff / d u_d.
* Maps keep the dtype of their points.  Points enter through
  :func:`as_points`: integer points become float64, and float64, complex128
  and object (e.g. ``Fraction``) points keep their dtype, so the same maps
  run on the complex step of :func:`fd_jacobian`.  Only constructor data
  (predicate rows, constant values) is cast to float.
* Regularity predicates are linear data: a field stores them as a (P, dim)
  array C of covector rows, and u is regular iff |u . c| >= REGULARITY_MARGIN
  for every row c (:func:`singular_segments` is the one place that compares).
  Every singular locus in the package is such a hyperplane, so chart
  changes act on the columns of C and unions of fields stack its rows.
* A (1,1)-tensor field K has as components a matrix M(u).  Row i of M is
  the covector image of the i-th coordinate differential,
      (K du_i)_m = M[i, m],
  the action on vectors is (K X)^i = sum_m M[i, m] X^m, and the two actions
  are adjoint:  theta(K X) = (K theta)(X).
* Nijenhuis torsion: N_K(X, Y) = K^2 [X, Y] + [KX, KY] - K[KX, Y] - K[X, KY].
* Wedge of one-forms on basis pairs: (a ^ b)[i, j] = a_i b_j - a_j b_i.
* Contractions over the point axis: a product with a matrix or a Jacobian
  cube on both sides (torsion, product-rule Jacobians) is a batched ``@``,
  one gemm per point after :func:`matmul_first` or :func:`matmul_last`
  flattens two axes of the cube; a matrix times a vector (:func:`apply`,
  :func:`covector_apply`) is an ``einsum``, which is faster for it.  Either
  way a batch equals the stack of its points bit for bit.

* Residuals are arrays, the point axis first: a condition yields its defect,
  and :func:`worst` alone reduces it to a report value.  The ``*_residual``
  helpers return :func:`worst` of their defect over all points given.

With these conventions the contraction df(N_K) for the quadratic
hydrodynamic operator of :mod:`lenardlab.gelfand_dikii` reproduces
dw_2 ^ df with factor exactly +1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Points are accepted only if every attached regularity predicate is bounded
# away from zero by this margin.
REGULARITY_MARGIN = 1e-3

class SingularPointError(ValueError):
    """A point violates a regularity predicate of the field it is fed to."""


class SingularSegmentError(SingularPointError):
    """A straight integration segment crosses (or grazes) a singular locus."""


class ChartMismatchError(ValueError):
    """Operands live on charts of different dimension."""


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart of R^dim."""

    name: str
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"chart dimension must be >= 2, got {self.dim}")


def as_points(p) -> np.ndarray:
    """``p`` as an array of at least float64 precision: integer points become
    float64, and float64, complex128 and object points keep their dtype."""
    u = np.asarray(p)
    # the dtype test first: every field evaluation passes here, and
    # np.result_type costs ten times as much as the test
    return u if u.dtype.char in "dDO" else u.astype(np.result_type(u.dtype, np.float64))


def coords_of(p, dim: int | None = None) -> np.ndarray:
    """The coordinates of a point, or of points along leading axes, as an
    array of shape (..., dim) (:func:`as_points`), checked against ``dim``."""
    u = as_points(p)
    # a single point passes the first test; only batches reach the slice
    if dim is not None and u.shape != (dim,) and u.shape[-1:] != (dim,):
        raise ChartMismatchError(f"expected points of length {dim}, got shape {u.shape}")
    return u


def predicate_rows(predicates, dim: int) -> np.ndarray:
    """Regularity predicates as a (P, dim) float array of covector rows."""
    return np.asarray(predicates, dtype=float).reshape(-1, dim)


def difference_rows(dim: int) -> np.ndarray:
    """The rows e_i - e_j, i < j: the hyperplanes u_i = u_j."""
    i, j = np.triu_indices(dim, 1)
    return np.eye(dim)[i] - np.eye(dim)[j]


def singular_segments(predicates: np.ndarray, u0, u1) -> np.ndarray:
    """The (..., P) mask of predicate rows c that change sign on, or reach
    |u . c| < REGULARITY_MARGIN along, the straight segments from ``u0`` to
    ``u1`` of shape (..., dim).

    This is the package's one regularity rule: a point is the segment from
    itself to itself.  The test is exact: a linear form is smallest in
    absolute value at an endpoint of a segment unless it changes sign on it.
    """
    v0, v1 = u0 @ predicates.T, u1 @ predicates.T
    crossing = v0 * v1 < 0.0
    # |v0| and |v1| overwrite v0 and v1: one full-size temporary fewer
    near = np.minimum(np.abs(v0, out=v0), np.abs(v1, out=v1), out=v0) < REGULARITY_MARGIN
    return near | crossing


def check_regular(predicates: np.ndarray, u: np.ndarray) -> None:
    """Raise SingularPointError if a point of ``u`` is singular for a row of
    the (P, dim) ``predicates``: :func:`singular_segments` of the point to
    itself.  The message names the first offending point."""
    bad = singular_segments(predicates, u, u)
    if bad.any():
        i, k = divmod(int(np.argmax(bad.ravel())), len(predicates))
        values = (u @ predicates.T).reshape(-1, len(predicates))
        raise SingularPointError(
            f"regularity predicate #{k} is {values[i, k]:.3e} "
            f"at {u.reshape(-1, u.shape[-1])[i]} (margin {REGULARITY_MARGIN:g})"
        )


# ---------------------------------------------------------------------------
# fields


class _Predicated:
    """Stores the ``predicates`` an object on a ``chart`` is built with as
    (P, dim) rows and checks the points its ``*_at`` methods are given
    against them; the raw maps take points unchecked."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", predicate_rows(self.predicates, self.chart.dim))

    def _regular(self, p) -> np.ndarray:
        u = coords_of(p, self.chart.dim)
        check_regular(self.predicates, u)
        return u


@dataclass(frozen=True, eq=False)
class Field(_Predicated):
    """A field with components ``coeff`` (..., *shape) and their analytic
    Jacobian ``jac`` (..., *shape, dim): a one-form or a vector field has
    shape (dim,), a (1,1)-tensor (dim, dim) (see the module docstring)."""

    chart: Chart
    coeff: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def coeff_at(self, p) -> np.ndarray:
        return self.coeff(self._regular(p))

    def jac_at(self, p) -> np.ndarray:
        return self.jac(self._regular(p))


# the benchmark's tracer names this alias; ROADMAP item 9 deletes it
OneFormField = Field


def constant_map(value) -> Callable[[np.ndarray], np.ndarray]:
    """The map u -> value, repeated over the point axes of u."""
    value = np.asarray(value, dtype=float)
    return lambda u: np.broadcast_to(value, np.shape(u)[:-1] + value.shape)


def constant_field(chart: Chart, value) -> Field:
    """The field u -> value, of any component shape; its Jacobian is zero."""
    return Field(chart, constant_map(value), constant_map(np.zeros(np.shape(value) + (chart.dim,))))


def _same_chart(*fields) -> Chart:
    charts = {f.chart.dim for f in fields}
    if len(charts) != 1:
        raise ChartMismatchError(f"operands on charts of dimensions {sorted(charts)}")
    return fields[0].chart


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """Coordinate permutation of a chart, acting as sigma(u)_i = u[mapping[i]]."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"{self.mapping} is not a bijection of 0..{len(self.mapping) - 1}")

    @classmethod
    def transposition(cls, dim: int, i: int, j: int) -> "Permutation":
        m = list(range(dim))
        m[i], m[j] = m[j], m[i]
        return cls(tuple(m))

    @property
    def dim(self) -> int:
        return len(self.mapping)

    @functools.cached_property
    def index(self) -> np.ndarray:
        """``mapping`` as an index array, for ``take`` along the coordinate axis."""
        return np.array(self.mapping)

    def __call__(self, u) -> np.ndarray:
        return as_points(u).take(self.index, axis=-1)


# ---------------------------------------------------------------------------
# residuals


def worst(*residuals) -> float:
    """The largest |entry| of any arrays or scalars, NaN if any entry is NaN,
    in any order (Python's ``max`` skips a NaN that does not come first).  A
    shortfall below a bound is clipped by ``np.maximum(0.0, bound - value)``,
    which keeps NaN, before it gets here; ``max(0.0, nan)`` is 0.0."""
    return float(functools.reduce(lambda a, b: a if a != a or a >= b else b,
                                  (np.abs(r).max() for r in residuals)))


def worst_by_name(pairs: Iterable[tuple[str, np.ndarray]]) -> dict[str, float]:
    """The :func:`worst` of the residuals of each name in (name, residual)
    pairs, each reduced as it arrives, so no residual array outlives its
    pair."""
    worst_of: dict[str, float] = {}
    for name, residual in pairs:
        worst_of[name] = worst(residual, worst_of.get(name, 0.0))
    return worst_of


def matmul_first(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[..., a, i, j] = sum_b m[..., a, b] t[..., b, i, j] at every point,
    (..., k, p) x (..., p, q, r) -> (..., k, q, r): one gemm per point, on t
    with its last two axes flattened."""
    out = m @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


def matmul_last(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """out[..., a, i, j] = sum_c t[..., a, i, c] m[..., c, j] at every point,
    (..., p, q, r) x (..., r, s) -> (..., p, q, s): one gemm per point, on t
    with its first two axes flattened."""
    out = t.reshape(t.shape[:-3] + (-1, t.shape[-1])) @ m
    return out.reshape(out.shape[:-2] + t.shape[-3:-1] + m.shape[-1:])


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector at every point: (..., i, j) x (..., j) -> (..., i).

    ``m @ v`` would read a batch of 3 vectors as one 3x3 matrix."""
    return np.einsum("...ij,...j->...i", m, v)


def covector_apply(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row vector times matrix at every point: (..., i) x (..., i, m) -> (..., m)."""
    return np.einsum("...i,...im->...m", theta, m)


def closure_defect(jac: np.ndarray) -> np.ndarray:
    """jac - jac^T of one-form Jacobians jac[..., i, j]; zero iff the forms
    are closed there."""
    return jac - np.swapaxes(jac, -1, -2)


def closure_residual(omega: Field, p) -> float:
    """Max antisymmetric part of the coefficient Jacobian; zero iff d(omega) = 0 at p."""
    return worst(closure_defect(omega.jac_at(p)))


def commutator_residual(k: Field, l: Field, p) -> float:
    _same_chart(k, l)
    a, b = k.coeff_at(p), l.coeff_at(p)
    return worst(a @ b - b @ a)


def _bracket(x: np.ndarray, dx: np.ndarray, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """[X, Y] = (DY) X - (DX) Y from components and Jacobians at every point."""
    return apply(dy, x) - apply(dx, y)


def lie_bracket_residual(x: Field, y: Field, p) -> float:
    """Worst |[X, Y]| over the points p, from the analytic Jacobians."""
    _same_chart(x, y)
    return worst(_bracket(x.coeff_at(p), x.jac_at(p), y.coeff_at(p), y.jac_at(p)))


def covector_image_jac(th: np.ndarray, jth: np.ndarray, m: np.ndarray,
                        jm: np.ndarray) -> np.ndarray:
    """d(theta M)[m, d] = sum_i dtheta[i, d] M[i, m] + theta[i] dM[i, m, d]."""
    return np.swapaxes(m, -1, -2) @ jth + matmul_first(th[..., None, :], jm)[..., 0, :, :]


def _vector_image_jac(m: np.ndarray, jm: np.ndarray, x: np.ndarray,
                      dx: np.ndarray) -> np.ndarray:
    """d(M X)[i, d] = sum_b dM[i, b, d] X[b] + M[i, b] dX[b, d]."""
    return matmul_first(x[..., None, :], np.swapaxes(jm, -3, -2))[..., 0, :, :] + m @ dx


def compose_jac(mk: np.ndarray, ml: np.ndarray, jk: np.ndarray, jl: np.ndarray) -> np.ndarray:
    """d(M_K M_L)[i, j, d] = sum_b dM_K[i, b, d] M_L[b, j] + M_K[i, b] dM_L[b, j, d];
    the first sum is taken on dM_K's [i, d, b] layout."""
    return np.swapaxes(matmul_last(np.swapaxes(jk, -1, -2), ml), -1, -2) + matmul_first(mk, jl)


def covector_image(k: Field, omega: Field) -> Field:
    """The one-form K(omega), with analytic Jacobian by the product rule."""
    chart = _same_chart(k, omega)

    def coeff(u: np.ndarray) -> np.ndarray:
        return covector_apply(omega.coeff(u), k.coeff(u))

    def jac(u: np.ndarray) -> np.ndarray:
        return covector_image_jac(omega.coeff(u), omega.jac(u), k.coeff(u), k.jac(u))

    return Field(chart, coeff, jac, np.concatenate([k.predicates, omega.predicates]))


# torsion --------------------------------------------------------------------


def _nijenhuis(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    """N[a, i, j] = r[a, i, j] - r[a, j, i] with r[a, i, j] = sum_b M[a, b] dM[b, i, j]
    - dM[a, i, b] M[b, j]: two gemms per point."""
    r = matmul_first(m, j) - matmul_last(j, m)
    return r - np.swapaxes(r, -1, -2)


def _haantjes(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    """H[a, i, j] from N and the antisymmetry of N in (i, j): with
    nm[a, i, j] = N(e_i, K e_j)^a, N(K e_i, e_j) + N(e_i, K e_j) = nm - nm^T, and
    N(K e_i, K e_j) is sum_b nm[a, b, j] M[b, i]."""
    n = _nijenhuis(m, j)
    nm = matmul_last(n, m)
    nt = np.swapaxes(nm, -1, -2)
    return (matmul_first(m @ m, n) + np.swapaxes(matmul_last(nt, m), -1, -2)
            - matmul_first(m, nm - nt))


def nijenhuis_tensor(k: Field, p) -> np.ndarray:
    """Components N[a, i, j] of the Nijenhuis torsion on coordinate basis pairs."""
    return _nijenhuis(k.coeff_at(p), k.jac_at(p))


def nijenhuis_contracted(k: Field, df: Field, p) -> np.ndarray:
    """The antisymmetric matrix df(N_K(., .)) on coordinate basis pairs."""
    _same_chart(k, df)
    return contract_torsion(df.coeff_at(p), nijenhuis_tensor(k, p))


def contract_torsion(theta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """theta(N(., .)) at every point: (..., a) x (..., a, i, j) -> (..., i, j)."""
    return np.einsum("...a,...aij->...ij", theta, n)


def haantjes_tensor(k: Field, p) -> np.ndarray:
    """H_K(X,Y) = K^2 N(X,Y) + N(KX,KY) - K(N(KX,Y) + N(X,KY)) on basis pairs."""
    return _haantjes(k.coeff_at(p), k.jac_at(p))


def haantjes_residual(k: Field, p) -> float:
    """Worst max|H_K| over the points p, each relative to max(1, |M|^3 |dM|).

    H_K sums products of three entries of M and one of its Jacobian, so
    rounding alone leaves about 1e-16 of |M|^3 |dM|; the scale keeps large
    operators of a torsion-free complex from failing on rounding.
    """
    return worst(_scaled_haantjes(k.coeff_at(p), k.jac_at(p)))


def _scaled_haantjes(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max|H_K| at every point, relative to max(1, |M|^3 |dM|) there
    (:func:`haantjes_residual`), from the matrices m and Jacobians j."""
    size = np.max(np.abs(m), axis=(-2, -1)) ** 3 * np.max(np.abs(j), axis=(-3, -2, -1))
    return np.max(np.abs(_haantjes(m, j)), axis=(-3, -2, -1)) / np.maximum(1.0, size)


def wedge_matrix(a, b) -> np.ndarray:
    """(a ^ b) on coordinate basis pairs."""
    a = np.asarray(a)[..., :, None]
    b = np.asarray(b)[..., :, None]
    return a * np.swapaxes(b, -1, -2) - b * np.swapaxes(a, -1, -2)


# Lenard complexes ----------------------------------------------------------


def lenard_residuals(mats: Sequence[np.ndarray], jacs: Sequence[np.ndarray], x: np.ndarray,
                     dx: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """(condition name, residual array) pairs of the axioms every Lenard
    complex shares, from the operator matrices and Jacobians and the
    scaling field's components and Jacobian at the same points: commuting
    chain fields [K_j X, K_l X] = 0 (``vector_field_commutators``),
    commuting operators (``operator_commutators``) and vanishing Haantjes
    torsion (``haantjes_torsion``).  :func:`worst_by_name` folds them with a
    family's own pairs.
    """
    # the chain fields K_j X and their Jacobians, by the product rule; they
    # are freed when this generator ends
    kx = [apply(m, x) for m in mats]
    dkx = [_vector_image_jac(m, jm, x, dx) for m, jm in zip(mats, jacs)]
    for j, l in pairwise_indices(len(mats)):
        a, b = mats[j], mats[l]
        yield "vector_field_commutators", _bracket(kx[j], dkx[j], kx[l], dkx[l])
        yield "operator_commutators", a @ b - b @ a
    for m, jm in zip(mats, jacs):
        yield "haantjes_torsion", _scaled_haantjes(m, jm)


def point_batch(points, dim: int) -> np.ndarray:
    """``points`` as an (N, dim) array (:func:`as_points`) with N >= 1."""
    u = as_points(points)
    if u.size == 0:
        raise ValueError("need at least one point")
    if u.ndim != 2:
        raise ChartMismatchError(f"expected an (N, {dim}) point array, got shape {u.shape}")
    return coords_of(u, dim)


# ---------------------------------------------------------------------------
# derivative oracles (cross-checks only, never the primary derivative)

# The complex step takes no difference, so it can sit far below the rounding
# of u itself: Im f(u + i h e_d) / h is exact to O(h^2) = 1e-60.
COMPLEX_STEP = 1e-30


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Complex-step Jacobian J[..., d] = Im fun(u + i h e_d) / h of a
    (possibly tensor-valued) real map at the real points ``u`` of shape
    (..., dim), the differentiation index appended as the last axis; h is
    COMPLEX_STEP.  ``fun`` is called dim times, each time with every point
    shifted along one coordinate, and must keep the dtype of its points
    (Squire and Trapp, SIAM Review 40, 1998; Martins, Sturdza and Alonso,
    ACM TOMS 29, 2003).

    No difference is taken, so there is no subtractive cancellation and the
    gap to an analytic Jacobian is rounding alone.  A value that is not
    finite makes its column NaN: a NaN written into a complex value is
    nan+0j, whose imaginary part would read as a derivative of 0.  The
    invalid-value warnings of complex arithmetic on a NaN point are silenced
    around the shifted evaluations; the NaN column carries the failure.
    """
    z = as_points(u).astype(complex)
    jac = None
    for d in range(z.shape[-1]):
        z.imag[..., d] = COMPLEX_STEP
        with np.errstate(invalid="ignore"):
            f = fun(z)
        if jac is None:
            # filled column by column: the Jacobian of a stacked map is the
            # largest array a verifier holds, so it is held once, and real
            jac = np.empty(np.shape(f) + z.shape[-1:])
        column = jac[..., d]
        np.divide(np.imag(f), COMPLEX_STEP, out=column)
        column[~np.isfinite(f)] = np.nan
        # only now: f may be a view of z, as the identity map's value is;
        # and f is freed before the next shift's values are formed
        z.imag[..., d] = 0.0
        del f
    return jac


# Second differences sit on a roundoff floor of eps|f|/h^2, so they use a
# larger step than the first-derivative checks.
FD_STEP_SECOND = 3e-4

_STENCIL4 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}


def fd_hessian(fun: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Fourth-order central second differences of a scalar map at the points
    ``u`` of shape (..., dim); the Hessian axes are appended.  ``fun`` is
    called once per stencil shift, each time with every point shifted."""
    u = as_points(u)
    h = FD_STEP_SECOND * np.maximum(1.0, np.abs(u))
    n = u.shape[-1]
    eye = np.eye(n)

    def at(shift: np.ndarray) -> np.ndarray:
        """``fun`` at every point moved by ``shift`` (in steps) per coordinate."""
        return fun(u + shift * h)

    f0 = at(np.zeros(n))
    out = np.empty(u.shape[:-1] + (n, n), np.result_type(f0))
    for i in range(n):
        hi = h[..., i]
        out[..., i, i] = (-at(-2 * eye[i]) + 16 * at(-eye[i]) - 30 * f0
                          + 16 * at(eye[i]) - at(2 * eye[i])) / (12 * hi * hi)
        for j in range(i + 1, n):
            acc = 0.0
            for ki, ci in _STENCIL4.items():
                for kj, cj in _STENCIL4.items():
                    acc = acc + ci * cj * at(ki * eye[i] + kj * eye[j])
            out[..., i, j] = out[..., j, i] = acc / (hi * h[..., j])
    return out


def relative_gap(diff: np.ndarray, exact: np.ndarray) -> float:
    """The worst of max|diff| / max(1, max|exact|), both maxima over the last
    two axes, over the leading ones; NaN if ``diff`` has a NaN.  A finite
    difference check's rule: a large value does not fail on rounding, and a
    small one is not measured on a large one's scale.  ``diff`` is
    overwritten with |diff|."""
    scale = np.maximum(1.0, np.max(np.abs(exact), axis=(-2, -1)))
    return worst(np.max(np.abs(diff, out=diff), axis=(-2, -1)) / scale)


def fd_check_tensor(value: Callable[[np.ndarray], np.ndarray], jacs: Sequence[np.ndarray],
                    p) -> float:
    """Worst relative gap over the points ``p`` between the analytic
    Jacobians ``jacs`` of a stack of rows and the complex-step Jacobian of
    the map ``value`` that evaluates them, from one :func:`fd_jacobian`
    call.

    ``value`` maps points (..., dim) to rows (..., R, dim): a (1,1)-tensor is
    its dim rows, and a verifier stacks every field it checks into one map,
    so each field is evaluated once per shifted batch.  ``jacs`` are the
    rows' Jacobians at ``p`` in consecutive blocks (..., r, dim, dim) whose r
    add up to R; a block may be a view of an array the caller holds, so no
    stacked copy of them is made.  Each row's gap at each point is divided by
    max(1, max|J|) of that row there, so a large field does not fail on
    rounding, and a small one is not measured on a large one's scale.  A NaN
    anywhere gives NaN.
    """
    gap = fd_jacobian(value, coords_of(p))
    ends = np.cumsum([jac.shape[-3] for jac in jacs])
    if ends[-1] != gap.shape[-3]:
        raise ValueError(f"{ends[-1]} Jacobian rows for {gap.shape[-3]} value rows")
    gaps = []
    for jac, end in zip(jacs, ends):
        rows = gap[..., end - jac.shape[-3]:end, :, :]
        rows -= jac
        gaps.append(relative_gap(rows, jac))
    return worst(*gaps)


# ---------------------------------------------------------------------------
# line integrals


def assert_segment_regular(predicates: np.ndarray, u0, u1) -> None:
    """Raise SingularSegmentError if a predicate row changes sign on, or
    enters the singular margin along, any of the straight segments from
    ``u0`` to ``u1`` of shape (..., dim); the message names the first
    offending segment and row (:func:`singular_segments`)."""
    u0, u1 = np.broadcast_arrays(coords_of(u0), coords_of(u1))
    bad = singular_segments(predicates, u0, u1)
    if bad.any():
        i, k = divmod(int(np.argmax(bad.ravel())), len(predicates))
        dim = u0.shape[-1]
        raise SingularSegmentError(
            f"segment #{i}, {u0.reshape(-1, dim)[i]} -> {u1.reshape(-1, dim)[i]}, "
            f"crosses the zero set of predicate #{k}"
        )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl_estimates(omega: Field, u0: np.ndarray, step: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """12-node Gauss-Legendre estimates of the integral of omega(u0 + t step)
    (step) dt over the panels [a, b] of shape (P, k), where u0 and step are
    the (P, dim) segments the panels lie on; one ``omega.coeff`` call."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid[..., None] + half[..., None] * _GL_NODES
    points = u0[:, None, None, :] + t[..., None] * step[:, None, None, :]
    f = np.einsum("...i,...i->...", omega.coeff(points), step[:, None, None, :])
    # the nodes summed in sequence, so each panel is the same sum at any batch size
    total = 0.0
    for k, w in enumerate(_GL_WEIGHTS):
        total = total + w * f[..., k]
    return half * total


def integrate_one_form(omega: Field, u_from, u_to,
                       tol: float = 1e-10, max_depth: int = 24):
    """Line integrals of omega along the straight segments from ``u_from`` to
    ``u_to`` of shape (..., dim), by adaptive Gauss-Legendre: an array of
    shape (...), one integral per segment (a float for one segment).

    Panels are bisected until the two-half refinement agrees with the single
    panel estimate to ``tol``.  A panel that has not converged at
    ``max_depth`` (or whose estimate is NaN) makes its segment's integral
    NaN, so an unconverged integral cannot pass a tolerance check.  The
    refinement runs breadth-first: each level evaluates both halves of every
    open panel of every segment in one ``omega.coeff`` call (the first level
    also the whole segment), and the accepted halves are summed bottom-up as
    left + right, so a segment's integral does not depend on the others.
    Every segment is checked first with :func:`assert_segment_regular`.
    """
    dim = omega.chart.dim
    u0, u1 = np.broadcast_arrays(coords_of(u_from, dim), coords_of(u_to, dim))
    shape = u0.shape[:-1]
    u0, u1 = u0.reshape(-1, dim), u1.reshape(-1, dim)
    assert_segment_regular(omega.predicates, u0, u1)
    step = u1 - u0
    seg = np.arange(len(u0))  # the segment of every open panel
    lo, hi = np.zeros(len(u0)), np.ones(len(u0))
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (value, split) of each depth's panels
    for depth in itertools.count():
        mid = 0.5 * (lo + hi)
        if depth == 0:
            est = _gl_estimates(omega, u0, step, np.stack([lo, lo, mid], -1),
                                np.stack([hi, mid, hi], -1))
            whole, halves = est[:, 0], est[:, 1:]
        else:
            halves = _gl_estimates(omega, u0[seg], step[seg], np.stack([lo, mid], -1),
                                   np.stack([mid, hi], -1))
        value = halves[:, 0] + halves[:, 1]
        err = np.abs(value - whole)
        accepted = err <= tol
        split = ~accepted & ~np.isnan(err) & (depth < max_depth)
        value[~accepted & ~split] = np.nan
        levels.append((value, split))
        if not split.any():
            break
        # the halves of every split panel become the open panels, left then right
        seg = np.repeat(seg[split], 2)
        lo, hi = (np.stack([lo[split], mid[split]], -1).ravel(),
                  np.stack([mid[split], hi[split]], -1).ravel())
        whole = halves[split].ravel()
    # a split panel is the sum of its halves' values, deepest level first
    for (value, split), (halves_value, _) in reversed(list(zip(levels, levels[1:]))):
        value[split] = halves_value[0::2] + halves_value[1::2]
    return levels[0][0].reshape(shape)[()]


def pairwise_indices(dim: int):
    return itertools.combinations(range(dim), 2)
