"""Per-layer spans around lenardlab's public functions, installed from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
function listed in ``LAYERS`` by a timing wrapper in every ``lenardlab.*``
namespace that holds it (modules bind helpers with ``from .chartcore import
...``, so one function can sit in several namespaces), and on the class for
methods.  ``uninstall`` puts every original back; ``leftover_wrappers`` scans
the package to prove it.

A layer's busy time is self time: span time minus the time of child spans, so
the busy times of all layers add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import defaultdict
from fnmatch import fnmatchcase
from time import perf_counter

# layer -> the public functions whose calls are its spans, as "module:name"
# or "module:Class.method" patterns (fnmatch), so that a function a later
# change removes simply stops being traced
LAYERS = {
    "cli": ("cli:main",),
    "sampling": ("sampling:sample_*",),
    "chartcore.field": ("chartcore:*.*_at",),
    "chartcore.regularity": ("chartcore:check_regular",),
    "chartcore.residual": ("chartcore:closure_residual", "chartcore:commutator_residual",
                           "chartcore:lie_bracket_residual"),
    "chartcore.torsion": ("chartcore:nijenhuis_tensor", "chartcore:haantjes_tensor",
                          "chartcore:haantjes_residual", "chartcore:nijenhuis_contracted"),
    "chartcore.fd": ("chartcore:fd_*",),
    "chartcore.segment_check": ("chartcore:assert_segment_regular",),
    "chartcore.quad": ("chartcore:integrate_one_form",),
    "equivariant.assemble": ("equivariant:assemble_complex",),
    "equivariant.verify": ("equivariant:verify_complex",),
    "equivariant.wdvv_square": ("equivariant:wdvv_residual_of_complex",),
    "equivariant.split": ("equivariant:split_form_residual",),
    "equivariant.reconstruct": ("equivariant:reconstruct_potential_entry",),
    "wdvv.residual": ("wdvv:wdvv_residual", "wdvv:generalized_wdvv_residual", "wdvv:g_matrix"),
    "gelfand_dikii.verify": ("gelfand_dikii:verify_gd_complex",),
    "gelfand_dikii.torsion_identity": ("gelfand_dikii:gd_torsion_identity_residual",),
    # the report layer includes writing the rendered text (cli._emit)
    "report": ("report:render_json", "cli:_emit"),
}

_ORIGINAL = "__bench_original__"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lenardlab" or name.startswith("lenardlab."))]


def _resolve(target: str) -> list[tuple[object, str, object]]:
    """(owner, attribute, function) for every function a target pattern names."""
    module_name, pattern = target.split(":")
    module = sys.modules.get(f"lenardlab.{module_name}")
    if module is None:
        return []
    owner_pattern, _, attr_pattern = pattern.rpartition(".")
    if owner_pattern:
        owners = [value for name, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and fnmatchcase(name, owner_pattern)]
    else:
        owners = [module]
    return [(owner, attr, value) for owner in owners for attr, value in vars(owner).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and fnmatchcase(attr, attr_pattern)]


def _target_of(fn) -> str:
    return f"{fn.__module__.removeprefix('lenardlab.')}:{fn.__qualname__}"


def _vector_count(draw) -> int:
    """Coordinate vectors in one generator draw: rows of its last axis."""
    shape = getattr(draw, "shape", ())
    return draw.size // shape[-1] if shape and shape[-1] else 1


class _CountingRng:
    """Generator proxy that counts the coordinate vectors it hands out."""

    def __init__(self, gen, counts: dict) -> None:
        self._gen = gen
        self._counts = counts

    def __getattr__(self, name: str):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._counts["drawn"] += _vector_count(out)
            return out

        return draw


class Tracer:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        hooks = {
            "sampling:sample_box": (None, self._count_accepted(1)),
            "sampling:sample_gapped_box": (None, self._count_accepted(1)),
            "sampling:sample_segments": (None, self._count_accepted(2)),
            "chartcore:integrate_one_form": (self._count_nodes, None),
            "report:render_json": (None, self._count_bytes),
        }
        rejects = sys.modules["lenardlab.wdvv"].SingularSliceError
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patch(modules, target, lambda fn: self._span(
                    layer, fn, rejects, *hooks.get(_target_of(fn), (None, None))))
        self._patch(modules, "sampling:default_rng", self._counting_rng)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules: list, target: str, make) -> None:
        found = _resolve(target)
        if not found:
            self.missing.append(target)
        for owner, attr, original in found:
            if isinstance(owner, type):  # a method: patching the class reaches every instance
                sites = [(owner, attr)]
            else:
                sites = [(m, name) for m in modules for name, value in vars(m).items()
                         if value is original]
            wrapper = make(original)
            setattr(wrapper, _ORIGINAL, original)
            for site, name in sites:
                setattr(site, name, wrapper)
                self._patches.append((site, name, original))

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, fn, rejects: type, before, after):
        open_spans, busy, calls, counts = self._open, self.busy, self.calls, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejects as exc:
                # count each pivot rejection once, where it first leaves a span
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counts["pivot_rejects"] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                open_spans.pop()
                busy[layer] += elapsed - children[0]
                calls[layer] += 1
                if open_spans:
                    open_spans[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return span

    def _counting_rng(self, fn):
        @functools.wraps(fn)
        def default_rng(*args, **kwargs):
            return _CountingRng(fn(*args, **kwargs), self.counts)

        return default_rng

    def _count_accepted(self, vectors_per_item: int):
        def after(result) -> None:
            self.counts["accepted"] += vectors_per_item * len(result)

        return after

    def _count_nodes(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Hand integrate_one_form a copy of its form whose coefficient map
        counts the quadrature nodes it is evaluated at."""
        omega = args[0] if args else kwargs.get("omega")
        if not dataclasses.is_dataclass(omega) or not hasattr(omega, "coeff"):
            return args, kwargs  # another form type: trace the call, count no nodes
        coeff, counts = omega.coeff, self.counts

        def counted(u):
            counts["node_evals"] += 1
            return coeff(u)

        omega = dataclasses.replace(omega, coeff=counted)
        if args:
            return (omega, *args[1:]), kwargs
        return args, {**kwargs, "omega": omega}

    def _count_bytes(self, text: str) -> None:
        self.counts["report_bytes"] += len(text.encode("utf-8"))

    # -- reading ----------------------------------------------------------

    def take(self) -> tuple[dict[str, float], float]:
        """Per-layer metrics since the last take, and the sum of all self
        times; then start counting afresh."""
        metrics: dict[str, float] = {"cli.self_s": self.busy["cli"]}
        for layer in LAYERS:
            if layer != "cli":
                metrics[f"{layer}.busy_s"] = self.busy[layer]
                metrics[f"{layer}.calls"] = self.calls[layer]
        drawn = self.counts["drawn"]
        metrics["sampling.accept_ratio"] = self.counts["accepted"] / drawn if drawn else 0.0
        metrics["chartcore.quad.node_evals"] = self.counts["node_evals"]
        metrics["wdvv.pivot_rejects"] = self.counts["pivot_rejects"]
        metrics["report.bytes"] = self.counts["report_bytes"]
        self_total = sum(self.busy.values())
        for table in (self.busy, self.calls, self.counts):
            table.clear()
        return metrics, self_total


def leftover_wrappers() -> list[str]:
    """Names in the lenardlab package that still hold a tracing wrapper."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if _ORIGINAL in getattr(value, "__dict__", {}):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{name}.{attr}"
                             for attr, member in vars(value).items()
                             if _ORIGINAL in getattr(member, "__dict__", {}))
    return found
