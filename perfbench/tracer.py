"""Per-layer tracing for the benchmark, by wrapping caliber's public functions.

Nothing inside caliber is edited.  `Tracer.install()` replaces each target
function or method with a wrapper that records a span (group, parent span,
start, end, degree tag, frame count) or, for the hottest arithmetic, only a
call count.  A module-level function is replaced under every name that a
loaded caliber module bound to it, so `from caliber.calib import
comass_search` in `suites` is traced too.  `uninstall()` restores every
original, so untraced passes in the same process run the program unchanged.

Spans stay in memory; `summarize()` turns a slice of them into per-group
call counts, self time (span minus its child spans), inclusive time and
frame counts after the measured passes are over.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Groups whose inclusive time or frame count is reported: only spans with no
# ancestor of the same group count, so nested builds are not billed twice.
INCLUSIVE_GROUPS = ("symforms.catalog", "model.build", "registry.catalog", "planes.samplers")

SAMPLERS = (
    "batch_random_planes",
    "batch_complex_planes",
    "batch_complex_isotropic_planes",
    "batch_double_lagrangian_planes",
    "batch_cr_planes",
    "batch_cr_legendrian_planes",
    "batch_hv_isotropic_planes",
    "batch_double_lagrangian_twistor",
    "rotated_w_theta",
)


def _evaluator_tag(args):
    """Degree and frame count of a FormEvaluator.values/grads call."""
    evaluator, V = args[0], args[1]
    shape = getattr(V, "shape", ())
    frames = 1
    for d in shape[:-2]:
        frames *= int(d)
    return evaluator.degree, frames


def _sampler_frames(result):
    shape = getattr(result, "shape", None)
    if shape is not None:
        return int(shape[0])
    return 1  # a single Plane


def _targets():
    """(group, owner, attribute, kind) for every traced callable.

    kind is "span", "count", "evaluator" (span tagged with degree and frames),
    "sampler" (span with the frames it returned) or "search" (span plus the
    restart and convergence totals of the returned ComassResult).
    """
    from caliber import calib, exterior, model, planes, registry, symforms

    sf = symforms
    out = [
        ("symforms.ext_d", sf, "ext_d", "span"),
        ("symforms.wedge", sf.RationalForm, "wedge", "span"),
        ("symforms.add", sf.RationalForm, "__add__", "span"),
        ("symforms.zero_test", sf.RationalForm, "is_zero", "span"),
        ("symforms.zero_test", sf.RationalForm, "residual_term_count", "span"),
        ("symforms.power", sf.CRationalForm, "power", "span"),
        ("symforms.interior", sf, "interior_field", "span"),
        ("symforms.cone_split", sf, "cone_split", "span"),
        ("symforms.potential", sf, "homogeneous_potential", "span"),
        ("symforms.lie_derivative", sf, "lie_derivative", "span"),
        ("symforms.catalog", sf, "link_extension_catalog", "span"),
        ("symforms.catalog", sf, "cone_constant_catalog", "span"),
        ("symforms.poly_mul", sf.Poly, "__mul__", "count"),
        ("symforms.rcoef_mul", sf.RCoef, "__mul__", "count"),
        ("symforms.rcoef_add", sf.RCoef, "__add__", "count"),
        ("calib.comass_search", calib, "comass_search", "search"),
        ("calib.values", calib.FormEvaluator, "values", "evaluator"),
        ("calib.grads", calib.FormEvaluator, "grads", "evaluator"),
        ("calib.canonical_frame", calib, "canonical_frame", "span"),
        ("calib.comass_2form_exact", calib, "comass_2form_exact", "span"),
        ("calib.batch_evaluate", calib, "batch_evaluate", "span"),
        ("calib.isotropy", calib, "isotropy_of_maximizers", "span"),
        ("exterior.wedge", exterior, "wedge", "span"),
        ("exterior.interior", exterior, "interior", "span"),
        ("exterior.hodge", exterior, "hodge", "span"),
        ("exterior.pullback", exterior, "pullback", "span"),
        ("planes.normal_form_theta", planes, "normal_form_theta", "span"),
        ("planes.quaternionic_envelope", planes, "quaternionic_envelope", "span"),
        ("planes.classify_plane", planes, "classify_plane", "span"),
        ("model.build", model, "build_hyperkahler_cone", "span"),
        ("model.build", model, "build_link_frame", "span"),
        ("model.build", model, "default_link_frame", "span"),
        ("model.build", model, "build_twistor_model", "span"),
        ("registry.catalog", registry, "catalog", "span"),
    ]
    out.extend(("planes.samplers", planes, name, "sampler") for name in SAMPLERS)
    return out


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        # span record: [group, parent index, start, end, degree, frames]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, group, fn, kind):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            degree, frames = _evaluator_tag(args) if kind == "evaluator" else (None, 0)
            rec = [group, stack[-1] if stack else -1, 0.0, 0.0, degree, frames]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if kind == "sampler":
                rec[5] = _sampler_frames(result)
            elif kind == "search":
                counts["calib.restarts"] += result.restarts_used
                counts["calib.converged_restarts"] += result.converged_fraction * result.restarts_used
            return result

        return wrapper

    def _count_wrapper(self, group, fn):
        counts = self.counts

        def wrapper(*args):
            counts[group] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "caliber" or name.startswith("caliber."))]
        for group, owner, attr, kind in _targets():
            original = getattr(owner, attr)
            if kind == "count":
                wrapper = self._count_wrapper(group, original)
            else:
                wrapper = self._span_wrapper(group, original, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # every module-level name bound to this function, e.g. from-imports
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position in the span list and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def summarize(self, start: int, end: int) -> dict:
        """Per-group totals of spans[start:end] (spans opened outside the
        slice are treated as roots)."""
        spans = self.spans
        child = defaultdict(float)
        for i in range(start, end):
            rec = spans[i]
            if rec[1] >= start:
                child[rec[1]] += rec[3] - rec[2]
        groups: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "frames": 0, "by_degree": defaultdict(float)}
        )
        for i in range(start, end):
            group, parent, t0, t1, degree, frames = spans[i]
            g = groups[group]
            self_s = (t1 - t0) - child.get(i, 0.0)
            g["calls"] += 1
            g["self_s"] += self_s
            if degree is not None:
                g["by_degree"][degree] += self_s
            if group in INCLUSIVE_GROUPS or frames:
                p = parent
                while p >= start and spans[p][0] != group:
                    p = spans[p][1]
                if p < start:
                    g["incl_s"] += t1 - t0
                    g["frames"] += frames
        return {name: dict(g, by_degree=dict(g["by_degree"])) for name, g in groups.items()}
