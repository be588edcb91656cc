"""Verdict oracle: does a CLI report say what the seed's code says it must?

Every report is parsed and held to the seed's condition names, order and
tolerances.  On-root and ``reproduce`` runs must exit 0 with every condition
passing; the off-root control must exit 1 with ``symmetry_constraint``
failing, together with the four other conditions the seed's code fails
there and no others.  A faster path that drops a check, loosens a tolerance
or stops catching the off-root failure is therefore a failed operation, not
a fast one.
"""

from __future__ import annotations

import json
import math

from workloads import Invocation

EXIT_PASS, EXIT_FAIL = 0, 1

_COMPLEX = (
    ("chain_of_forms", 1e-9), ("chain_of_vector_fields", 1e-9),
    ("vector_field_commutators", 1e-9), ("square_closure", 1e-9),
    ("operator_commutators", 1e-9), ("third_tensor_symmetry", 1e-9),
    ("haantjes_torsion", 1e-9), ("symmetry_constraint", 1e-9),
    ("partition_of_identity", 1e-9), ("k2dR_equals_k3dQ", 1e-9),
    ("operator_exchange", 1e-9), ("square_equivariance", 1e-9),
    ("jacobian_fd_agreement", 1e-6), ("wdvv_commutation_from_square", 1e-8),
    ("split_form_identity", 1e-9),
)
_WDVV = (("wdvv_commutation", 1e-8), ("hessian_fd_agreement", 1e-6),
         ("third_fd_agreement", 1e-6))
_EULER = (("generalized_wdvv_commutation", 1e-8), ("euler_contraction_constant", 1e-10))
_EXAMPLE3 = _COMPLEX + (
    ("display_coefficients_match", 1e-10), ("chain_field_constants", 1e-12),
    ("potential_reconstruction", 1e-6), ("reference_wdvv_agreement", 1e-8),
)
_GD = (
    ("chain_closure", 1e-9), ("square_closure", 1e-9), ("vector_field_commutators", 1e-9),
    ("operator_commutators", 1e-9), ("haantjes_torsion", 1e-9),
    ("operator_symmetry_along_X", 1e-9), ("jacobian_fd_agreement", 1e-6),
    ("chain_independence", 1e-12), ("torsion_identity", 1e-9),
    ("nijenhuis_nonvanishing", 1e-12), ("power_chain_not_closed", 1e-12),
)

# what the seed's code fails off the symmetry-constraint root
_OFF_ROOT_FAILS = ("operator_commutators", "haantjes_torsion", "symmetry_constraint",
                   "k2dR_equals_k3dQ", "wdvv_commutation_from_square")

# kind -> (report command, (condition name, tolerance) in the seed's order,
#          expected exit status, conditions that must fail)
EXPECTED = {
    "complex": ("build-complex", _COMPLEX, EXIT_PASS, ()),
    "complex_off_root": ("build-complex", _COMPLEX, EXIT_FAIL, _OFF_ROOT_FAILS),
    "wdvv": ("verify-wdvv", _WDVV, EXIT_PASS, ()),
    "wdvv_euler": ("verify-wdvv", _WDVV + _EULER, EXIT_PASS, ()),
    "example3": ("reproduce example3", _EXAMPLE3, EXIT_PASS, ()),
    "gd": ("reproduce gd", _GD, EXIT_PASS, ()),
}


def check(inv: Invocation, exit_code: int, text: str) -> str | None:
    """Return why the report of ``inv`` is wrong, or None if it is right."""
    command, conditions, want_exit, must_fail = EXPECTED[inv.kind]
    if exit_code != want_exit:
        return f"exit status {exit_code}, expected {want_exit}"
    try:
        doc = json.loads(text)
        rows = [(c["name"], c["tol"], c["max_residual"], c["pass"]) for c in doc["conditions"]]
        params = doc["params"]
        seed, points = params.get("seed"), params.get("points")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable report: {exc!r}"
    if doc.get("command") != command:
        return f"command {doc.get('command')!r}, expected {command!r}"
    if seed != inv.seed or points != inv.points:
        return "report params do not echo the invocation's seed and point count"
    if [(name, tol) for name, tol, _, _ in rows] != list(conditions):
        return f"conditions {[r[:2] for r in rows]} differ from the expected {list(conditions)}"
    for name, tol, residual, passed in rows:
        if not isinstance(residual, (int, float)) or math.isnan(residual):
            return f"{name}: residual {residual!r} is not a number"
        if passed is not (residual < tol):
            return f"{name}: pass flag {passed!r} contradicts residual {residual!r}"
        if passed is (name in must_fail):
            return f"{name} {'passes' if passed else 'fails'} (residual {residual!r}, tol {tol!r})"
    overall = all(r[3] for r in rows)
    if doc.get("pass") is not overall or overall is not (exit_code == EXIT_PASS):
        return f"overall pass {doc.get('pass')!r} contradicts conditions or exit {exit_code}"
    return None
