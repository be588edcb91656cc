"""The five-point central-difference Jacobian, the test oracle of the
package's complex-step one (:func:`lenardlab.chartcore.fd_jacobian`).

It takes real differences of real points, so a map that silently drops the
imaginary part of its points (``abs``, ``np.real``, a comparison) still gets
its true derivative here, where the complex step reads 0.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from lenardlab import chartcore as cc

# The step along coordinate d is FD_STEP * max(1, |u_d|).
FD_STEP = 1e-5


def five_point_jacobian(fun: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """Central-difference Jacobian of a (possibly tensor-valued) map at the
    points ``u`` of shape (..., dim), the differentiation index appended as
    the last axis; ``fun`` is called 4 * dim times, each time with every
    point shifted along one coordinate.

    The five-point (fourth-order) stencil: with the h above, a two-point
    stencil cannot certify 1e-6 agreement for the logarithmic coefficients
    near the 0.05 sampling gap, while this one stays below 1e-10 there.
    """
    u = cc.as_points(u)
    h = FD_STEP * np.maximum(1.0, np.abs(u))

    def at(d: int, k: int) -> np.ndarray:
        v = u.copy()
        v[..., d] += k * h[..., d]
        return fun(v)

    jac = np.stack([at(d, -2) - 8.0 * at(d, -1) + 8.0 * at(d, 1) - at(d, 2)
                    for d in range(u.shape[-1])], axis=-1)
    # 12 h_d, aligned with the point axes and the appended derivative axis
    return jac / (12.0 * h).reshape(h.shape[:-1] + (1,) * (jac.ndim - h.ndim) + h.shape[-1:])
