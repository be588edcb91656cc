"""Charts, points, differentiable fields and the generic residual computations.

Everything lives on a fixed coordinate chart of R^n.  Fields are pairs of
callables (components and their analytic first derivatives); all residuals
below are computed from the analytic derivatives, with central finite
differences available only as an independent cross-check.

Conventions, fixed once for the whole package:

* Points carry a leading point axis: every field callable takes an array
  of shape (..., dim) and broadcasts over the leading axes, so a batch of N
  points is one (N, dim) call and a single point is the () case of the same
  code.  Component shapes below are the trailing axes.
* Regularity predicates are linear data: a field stores them as a (P, dim)
  array C of covector rows, and u is regular iff |u . c| >= REGULARITY_MARGIN
  for every row c (:func:`singular_segments` is the one place that compares).
  Every singular locus in the package is such a hyperplane, so chart
  changes act on the columns of C and unions of fields stack its rows.
* A (1,1)-tensor field K is stored as a single matrix-valued map M(u).
  Row i of M is the covector image of the i-th coordinate differential,
      (K du_i)_m = M[i, m],
  the action on vectors is (K X)^i = sum_m M[i, m] X^m, and the two actions
  are adjoint:  theta(K X) = (K theta)(X).
* One-form Jacobians are jac[i, j] = d c_i / d u_j; vector-field Jacobians
  are jac[i, j] = d X^i / d u_j; tensor Jacobians are jac[i, j, d] =
  d M[i, j] / d u_d.
* Nijenhuis torsion: N_K(X, Y) = K^2 [X, Y] + [KX, KY] - K[KX, Y] - K[X, KY].
* Wedge of one-forms on basis pairs: (a ^ b)[i, j] = a_i b_j - a_j b_i.

The ``*_residual`` helpers return the worst value over all points given.
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

# Central-difference step is FD_STEP * max(1, |u_i|) per coordinate.
FD_STEP = 1e-5


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


def coords_of(p, dim: int | None = None) -> np.ndarray:
    """The coordinates of a point, or of points along leading axes, as a
    float array of shape (..., dim), checked against ``dim``."""
    u = np.asarray(p, dtype=float)
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


def union_predicates(*row_sets: np.ndarray) -> np.ndarray:
    """The rows of every (P_i, dim) set, one row per direction up to sign.

    Of parallel rows the shortest is kept: it is the one that binds the
    ``|u . c| >= REGULARITY_MARGIN`` test, so every verdict stays the same.
    A zero row is kept (once) and makes every point singular.
    """
    rows = np.concatenate(row_sets)
    norms = np.linalg.norm(rows, axis=-1)
    order = np.argsort(norms, kind="stable")
    rows, norms = rows[order], norms[order]
    unit = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    apart = np.minimum(np.linalg.norm(unit[:, None] - unit[None], axis=-1),
                       np.linalg.norm(unit[:, None] + unit[None], axis=-1))
    return rows[~np.tril(apart <= 1e-12, -1).any(axis=-1)]


def singular_segments(predicates: np.ndarray, u0, u1) -> np.ndarray:
    """The (..., P) mask of predicate rows c that change sign on, or reach
    |u . c| < REGULARITY_MARGIN along, the straight segments from ``u0`` to
    ``u1`` of shape (..., dim).

    This is the package's one regularity rule: a point is the segment from
    itself to itself.  The test is exact: a linear form is smallest in
    absolute value at an endpoint of a segment unless it changes sign on it.
    """
    v0, v1 = u0 @ predicates.T, u1 @ predicates.T
    return (np.minimum(np.abs(v0), np.abs(v1)) < REGULARITY_MARGIN) | (v0 * v1 < 0.0)


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


class _Field:
    """Stores the ``predicates`` a field is built with as (P, dim) rows and
    checks the points its ``*_at`` methods are given against them."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", predicate_rows(self.predicates, self.chart.dim))

    def _regular(self, p) -> np.ndarray:
        u = coords_of(p, self.chart.dim)
        check_regular(self.predicates, u)
        return u


@dataclass(frozen=True, eq=False)
class ScalarField(_Field):
    """Scalar function with analytic gradient."""

    chart: Chart
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def grad_at(self, p) -> np.ndarray:
        return np.asarray(self.grad(self._regular(p)), dtype=float)


@dataclass(frozen=True, eq=False)
class OneFormField(_Field):
    """One-form sum_i c_i(u) du_i with analytic coefficient Jacobian."""

    chart: Chart
    coeff: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def coeff_at(self, p) -> np.ndarray:
        return np.asarray(self.coeff(self._regular(p)), dtype=float)

    def jac_at(self, p) -> np.ndarray:
        return np.asarray(self.jac(self._regular(p)), dtype=float)


@dataclass(frozen=True, eq=False)
class VectorFieldSpec(_Field):
    """Vector field with analytic component Jacobian."""

    chart: Chart
    comp: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def comp_at(self, p) -> np.ndarray:
        return np.asarray(self.comp(self._regular(p)), dtype=float)

    def jac_at(self, p) -> np.ndarray:
        return np.asarray(self.jac(self._regular(p)), dtype=float)


@dataclass(frozen=True, eq=False)
class TensorField11(_Field):
    """(1,1)-tensor field; see the module docstring for the row convention."""

    chart: Chart
    mat: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    predicates: np.ndarray = ()

    def mat_at(self, p) -> np.ndarray:
        return np.asarray(self.mat(self._regular(p)), dtype=float)

    def jac_at(self, p) -> np.ndarray:
        return np.asarray(self.jac(self._regular(p)), dtype=float)


# constructors ---------------------------------------------------------------


def constant_map(value) -> Callable[[np.ndarray], np.ndarray]:
    """The map u -> value, repeated over the point axes of u."""
    value = np.asarray(value, dtype=float)
    return lambda u: np.broadcast_to(value, np.shape(u)[:-1] + value.shape)


def constant_form(chart: Chart, coeffs) -> OneFormField:
    c = np.array(coeffs, dtype=float)
    return OneFormField(chart, constant_map(c), constant_map(np.zeros((chart.dim, chart.dim))))


def coordinate_vector_field(chart: Chart, i: int) -> VectorFieldSpec:
    """The coordinate field d/du_i (0-based index)."""
    return VectorFieldSpec(chart, constant_map(np.eye(chart.dim)[i]),
                           constant_map(np.zeros((chart.dim, chart.dim))))


def constant_tensor(chart: Chart, mat) -> TensorField11:
    m = np.array(mat, dtype=float)
    return TensorField11(chart, constant_map(m), constant_map(np.zeros((chart.dim,) * 3)))


def identity_tensor(chart: Chart) -> TensorField11:
    return constant_tensor(chart, np.eye(chart.dim))


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
        return np.asarray(u, dtype=float).take(self.index, axis=-1)

    def inverse(self) -> "Permutation":
        return Permutation(tuple(int(k) for k in np.argsort(self.mapping)))


def pullback(sigma: Permutation, omega: OneFormField) -> OneFormField:
    """Pull a one-form back along the coordinate permutation sigma.

    Coefficients transform as c'_m(u) = c_{sigma^{-1}(m)}(sigma(u)), which for
    transpositions is the familiar swap of both labels and arguments.
    """
    if sigma.dim != omega.chart.dim:
        raise ChartMismatchError(
            f"permutation of dim {sigma.dim} on chart of dim {omega.chart.dim}"
        )
    inv = sigma.inverse().index

    def coeff(u: np.ndarray) -> np.ndarray:
        return np.asarray(omega.coeff(sigma(u)), dtype=float).take(inv, axis=-1)

    def jac(u: np.ndarray) -> np.ndarray:
        return np.asarray(omega.jac(sigma(u)), dtype=float).take(inv, -1).take(inv, -2)

    return OneFormField(omega.chart, coeff, jac, omega.predicates.take(inv, axis=-1))


def transform_tensor(sigma: Permutation, k: TensorField11) -> TensorField11:
    """Transform a (1,1)-tensor by the usual rule, (sigma K)(u) = K(sigma^{-1}u) conjugated."""
    if sigma.dim != k.chart.dim:
        raise ChartMismatchError(
            f"permutation of dim {sigma.dim} on chart of dim {k.chart.dim}"
        )
    inv = sigma.inverse()
    idx = sigma.index

    def mat(u: np.ndarray) -> np.ndarray:
        return np.asarray(k.mat(inv(u)), dtype=float).take(idx, -1).take(idx, -2)

    def jac(u: np.ndarray) -> np.ndarray:
        return np.asarray(k.jac(inv(u)), dtype=float).take(idx, -1).take(idx, -2).take(idx, -3)

    return TensorField11(k.chart, mat, jac, k.predicates.take(idx, axis=-1))


# ---------------------------------------------------------------------------
# residuals


def _nan_max2(a: float, b: float) -> float:
    return a if a != a or a >= b else b


def nan_max(values: Iterable[float]) -> float:
    """The largest of ``values``, or NaN if any of them is NaN, in any order.

    Python's ``max`` keeps its running value when the next one is NaN, so a
    NaN residual would pass unless it came first.
    """
    return float(functools.reduce(_nan_max2, values))


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector at every point: (..., i, j) x (..., j) -> (..., i).

    ``m @ v`` would read a batch of 3 vectors as one 3x3 matrix."""
    return np.einsum("...ij,...j->...i", m, v)


def covector_apply(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row vector times matrix at every point: (..., i) x (..., i, m) -> (..., m)."""
    return np.einsum("...i,...im->...m", theta, m)


def closure_residual(omega: OneFormField, p) -> float:
    """Max antisymmetric part of the coefficient Jacobian; zero iff d(omega) = 0 at p."""
    j = omega.jac_at(p)
    return float(np.max(np.abs(j - np.swapaxes(j, -1, -2))))


def commutator_residual(k: TensorField11, l: TensorField11, p) -> float:
    _same_chart(k, l)
    a, b = k.mat_at(p), l.mat_at(p)
    return float(np.max(np.abs(a @ b - b @ a)))


def _bracket(x: np.ndarray, dx: np.ndarray, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """[X, Y] = (DY) X - (DX) Y from components and Jacobians at every point."""
    return apply(dy, x) - apply(dx, y)


def lie_bracket_residual(x: VectorFieldSpec, y: VectorFieldSpec, p) -> float:
    """Worst |[X, Y]| over the points p, from the analytic Jacobians."""
    _same_chart(x, y)
    return float(np.max(np.abs(_bracket(x.comp_at(p), x.jac_at(p), y.comp_at(p), y.jac_at(p)))))


def covector_image(k: TensorField11, omega: OneFormField) -> OneFormField:
    """The one-form K(omega), with analytic Jacobian by the product rule."""
    chart = _same_chart(k, omega)

    def coeff(u: np.ndarray) -> np.ndarray:
        return covector_apply(np.asarray(omega.coeff(u), dtype=float),
                              np.asarray(k.mat(u), dtype=float))

    def jac(u: np.ndarray) -> np.ndarray:
        th = np.asarray(omega.coeff(u), dtype=float)
        jth = np.asarray(omega.jac(u), dtype=float)
        m = np.asarray(k.mat(u), dtype=float)
        jm = np.asarray(k.jac(u), dtype=float)
        return np.einsum("...id,...im->...md", jth, m) + np.einsum("...i,...imd->...md", th, jm)

    return OneFormField(chart, coeff, jac, union_predicates(k.predicates, omega.predicates))


def tensor_compose(k: TensorField11, l: TensorField11) -> TensorField11:
    """K o L (apply L first): matrices multiply as M_K M_L in both actions."""
    chart = _same_chart(k, l)

    def mat(u: np.ndarray) -> np.ndarray:
        return np.asarray(k.mat(u), dtype=float) @ np.asarray(l.mat(u), dtype=float)

    def jac(u: np.ndarray) -> np.ndarray:
        mk, ml = np.asarray(k.mat(u), dtype=float), np.asarray(l.mat(u), dtype=float)
        jk, jl = np.asarray(k.jac(u), dtype=float), np.asarray(l.jac(u), dtype=float)
        return np.einsum("...ibd,...bj->...ijd", jk, ml) + np.einsum("...ib,...bjd->...ijd", mk, jl)

    return TensorField11(chart, mat, jac, union_predicates(k.predicates, l.predicates))


def tensor_add_scalar_identity(k: TensorField11, f: ScalarField) -> TensorField11:
    """K + f * Id."""
    chart = _same_chart(k, f)
    eye = np.eye(chart.dim)

    def mat(u: np.ndarray) -> np.ndarray:
        return (np.asarray(k.mat(u), dtype=float)
                + np.asarray(f.value(u), dtype=float)[..., None, None] * eye)

    def jac(u: np.ndarray) -> np.ndarray:
        g = np.asarray(f.grad(u), dtype=float)
        return np.asarray(k.jac(u), dtype=float) + np.einsum("ij,...d->...ijd", eye, g)

    return TensorField11(chart, mat, jac, union_predicates(k.predicates, f.predicates))


# torsion --------------------------------------------------------------------


def _nijenhuis(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    t1 = np.einsum("...bi,...ajb->...aij", m, j)
    t2 = np.einsum("...bj,...aib->...aij", m, j)
    t3 = np.einsum("...ab,...bji->...aij", m, j)
    t4 = np.einsum("...ab,...bij->...aij", m, j)
    return t1 - t2 - t3 + t4


def _haantjes(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    n = _nijenhuis(m, j)
    m2 = m @ m
    return (
        np.einsum("...ab,...bij->...aij", m2, n)
        + np.einsum("...abc,...bi,...cj->...aij", n, m, m)
        - np.einsum("...ab,...bcj,...ci->...aij", m, n, m)
        - np.einsum("...ab,...bic,...cj->...aij", m, n, m)
    )


def nijenhuis_tensor(k: TensorField11, p) -> np.ndarray:
    """Components N[a, i, j] of the Nijenhuis torsion on coordinate basis pairs."""
    return _nijenhuis(k.mat_at(p), k.jac_at(p))


def nijenhuis_contracted(k: TensorField11, f: ScalarField, p) -> np.ndarray:
    """The antisymmetric matrix df(N_K(., .)) on coordinate basis pairs."""
    _same_chart(k, f)
    n = nijenhuis_tensor(k, p)
    return np.einsum("...a,...aij->...ij", f.grad_at(p), n)


def haantjes_tensor(k: TensorField11, p) -> np.ndarray:
    """H_K(X,Y) = K^2 N(X,Y) + N(KX,KY) - K(N(KX,Y) + N(X,KY)) on basis pairs."""
    return _haantjes(k.mat_at(p), k.jac_at(p))


def haantjes_residual(k: TensorField11, p) -> float:
    """Worst max|H_K| over the points p, each relative to max(1, |M|^3 |dM|).

    H_K sums products of three entries of M and one of its Jacobian, so
    rounding alone leaves about 1e-16 of |M|^3 |dM|; the scale keeps large
    operators of a torsion-free complex from failing on rounding.
    """
    return _scaled_haantjes(k.mat_at(p), k.jac_at(p))


def _scaled_haantjes(m: np.ndarray, j: np.ndarray) -> float:
    """:func:`haantjes_residual` from the matrices m and Jacobians j."""
    size = np.max(np.abs(m), axis=(-2, -1)) ** 3 * np.max(np.abs(j), axis=(-3, -2, -1))
    return float(np.max(np.max(np.abs(_haantjes(m, j)), axis=(-3, -2, -1))
                        / np.maximum(1.0, size)))


def wedge_matrix(a, b) -> np.ndarray:
    """(a ^ b) on coordinate basis pairs."""
    a = np.asarray(a, dtype=float)[..., :, None]
    b = np.asarray(b, dtype=float)[..., :, None]
    return a * np.swapaxes(b, -1, -2) - b * np.swapaxes(a, -1, -2)


# Lenard complexes ----------------------------------------------------------


def lenard_residuals(operators: Sequence[TensorField11], X: VectorFieldSpec,
                     forms: Sequence[OneFormField], points: np.ndarray,
                     extras: Callable[[np.ndarray, list[np.ndarray], list[np.ndarray]],
                                      Iterable[tuple[str, float]]]) -> dict[str, float]:
    """Worst residual over ``points`` of each condition of a Lenard complex.

    The axioms every complex shares are checked here: commuting chain fields
    [K_j X, K_l X] = 0 (``vector_field_commutators``), commuting operators
    (``operator_commutators``), vanishing Haantjes torsion
    (``haantjes_torsion``) and closed ``forms`` (``square_closure``).
    ``extras(points, mats, jacs)`` yields (condition name, residual) pairs
    for a family's own conditions from the operator matrices and Jacobians.
    Each field is evaluated once over the whole (N, dim) batch, and every
    condition is a NaN-propagating maximum, whatever the point order.
    """
    mats = [k.mat_at(points) for k in operators]
    jacs = [k.jac_at(points) for k in operators]
    x, dx = X.comp_at(points), X.jac_at(points)
    # the chain fields K_j X and their Jacobians, by the product rule
    kx = [apply(m, x) for m in mats]
    dkx = [np.einsum("...ibd,...b->...id", jm, x) + m @ dx for m, jm in zip(mats, jacs)]

    def shared() -> Iterator[tuple[str, float]]:
        for j, l in pairwise_indices(len(operators)):
            a, b = mats[j], mats[l]
            yield ("vector_field_commutators",
                   float(np.max(np.abs(_bracket(kx[j], dkx[j], kx[l], dkx[l])))))
            yield "operator_commutators", float(np.max(np.abs(a @ b - b @ a)))
        for m, jm in zip(mats, jacs):
            yield "haantjes_torsion", _scaled_haantjes(m, jm)
        for f in forms:
            yield "square_closure", closure_residual(f, points)

    worst: dict[str, float] = {}
    for name, value in itertools.chain(shared(), extras(points, mats, jacs)):
        worst[name] = _nan_max2(worst.get(name, value), value)
    return worst


def point_batch(points, dim: int) -> np.ndarray:
    """``points`` as an (N, dim) float array with N >= 1."""
    u = np.asarray(points, dtype=float)
    if u.size == 0:
        raise ValueError("need at least one point")
    if u.ndim != 2:
        raise ChartMismatchError(f"expected an (N, {dim}) point array, got shape {u.shape}")
    return coords_of(u, dim)


# ---------------------------------------------------------------------------
# finite differences (cross-check only, never the primary derivative)


def _fd_steps(u: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(u))


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Central-difference Jacobian of a (possibly tensor-valued) map at the
    points ``u`` of shape (..., dim); the differentiation index is appended
    as the last axis.  ``fun`` is called 4 * dim times, each time with every
    point shifted along one coordinate.

    Uses the five-point (fourth-order) central stencil: with the h above, a
    two-point stencil cannot certify 1e-6 agreement for the logarithmic
    coefficients near the 0.05 sampling gap, while this one stays below
    1e-10 there.
    """
    u = np.asarray(u, dtype=float)
    h = _fd_steps(u)
    h_by_coord = h.T  # h_by_coord[d]: the steps along coordinate d, at every point

    def at(d: int, k: int) -> np.ndarray:
        v = u.copy()
        v.T[d] += k * h_by_coord[d]
        return np.asarray(fun(v), dtype=float)

    jac = np.stack([at(d, -2) - 8.0 * at(d, -1) + 8.0 * at(d, 1) - at(d, 2)
                    for d in range(u.shape[-1])], axis=-1)
    # 12 h_d, aligned with the point axes and the appended derivative axis
    step = (12.0 * h).reshape(h.shape[:-1] + (1,) * (jac.ndim - h.ndim) + h.shape[-1:])
    return jac / step


# Second differences sit on a roundoff floor of eps|f|/h^2, so they use a
# larger step than the first-derivative checks.
FD_STEP_SECOND = 3e-4

_STENCIL4 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}


def fd_hessian(fun: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Fourth-order central second differences of a scalar map at the points
    ``u`` of shape (..., dim); the Hessian axes are appended.  ``fun`` is
    called once per stencil shift, each time with every point shifted."""
    u = np.asarray(u, dtype=float)
    h = FD_STEP_SECOND * np.maximum(1.0, np.abs(u))
    n = u.shape[-1]
    eye = np.eye(n)

    def at(shift: np.ndarray) -> np.ndarray:
        """``fun`` at every point moved by ``shift`` (in steps) per coordinate."""
        return np.asarray(fun(u + shift * h), dtype=float)

    out = np.empty(u.shape[:-1] + (n, n))
    f0 = at(np.zeros(n))
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


def _fd_check(field, value: Callable[[np.ndarray], np.ndarray], p) -> float:
    """Worst gap between ``field.jac`` and the FD Jacobian of ``value`` over
    the points ``p``, from one ``fd_jacobian`` call."""
    u = field._regular(p)
    return float(np.max(np.abs(fd_jacobian(value, u) - field.jac(u))))


def fd_check_one_form(omega: OneFormField, p) -> float:
    return _fd_check(omega, omega.coeff, p)


def fd_check_vector_field(x: VectorFieldSpec, p) -> float:
    return _fd_check(x, x.comp, p)


def fd_check_tensor(k: TensorField11, p) -> float:
    return _fd_check(k, k.mat, p)


# ---------------------------------------------------------------------------
# line integrals


def assert_segment_regular(predicates: np.ndarray, u0, u1) -> None:
    """Raise SingularSegmentError if a predicate row changes sign on, or
    enters the singular margin along, any of the straight segments from
    ``u0`` to ``u1`` of shape (..., dim); the message names the first
    offending segment and row (:func:`singular_segments`)."""
    u0, u1 = np.broadcast_arrays(np.asarray(u0, dtype=float), np.asarray(u1, dtype=float))
    bad = singular_segments(predicates, u0, u1)
    if bad.any():
        i, k = divmod(int(np.argmax(bad.ravel())), len(predicates))
        dim = u0.shape[-1]
        raise SingularSegmentError(
            f"segment #{i}, {u0.reshape(-1, dim)[i]} -> {u1.reshape(-1, dim)[i]}, "
            f"crosses the zero set of predicate #{k}"
        )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl_estimates(omega: OneFormField, u0: np.ndarray, step: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """12-node Gauss-Legendre estimates of the integral of omega(u0 + t step)
    (step) dt over the panels [a, b] of shape (P, k), where u0 and step are
    the (P, dim) segments the panels lie on; one ``omega.coeff`` call."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid[..., None] + half[..., None] * _GL_NODES
    points = u0[:, None, None, :] + t[..., None] * step[:, None, None, :]
    f = np.einsum("...i,...i->...", np.asarray(omega.coeff(points), dtype=float),
                  step[:, None, None, :])
    # the nodes summed in sequence, so each panel is the same sum at any batch size
    total = 0.0
    for k, w in enumerate(_GL_WEIGHTS):
        total = total + w * f[..., k]
    return half * total


def integrate_one_form(omega: OneFormField, u_from, u_to,
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
