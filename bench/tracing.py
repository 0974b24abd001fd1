"""Spans and counts at the layer boundaries of ``stabilis``.

:class:`Tracer` wraps the public functions of each module, in every
module namespace that imported them and on the classes that define the
traced methods, and records one span per call: name, start, end, parent
and one integer of detail (the precision t of a soft-float operation, the
bits asked of an enclosure, the points drawn by a sampler).  Spans are
kept in flat arrays and summarised once per round; nothing is traced
unless the tracer is installed.

A layer's self time is the duration of its spans minus the part covered
by their child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

FP_OPS = ("fpcore.fl", "fpcore.fl_ziv", "fpcore.fp_add", "fpcore.fp_sub", "fpcore.fp_mul", "fpcore.fp_div")

# Per-layer metrics, in report order: (name, unit, better).
PER_LAYER = [
    ("fpcore.ops", "count", "lower"),
    ("fpcore.self_s", "s", "lower"),
    ("fpcore.ziv_rounds", "count", "lower"),
    ("fpcore.ziv_refinements", "count", "lower"),
    ("fpcore.ziv_max_bits", "bits", "lower"),
    ("fpcore.ziv_first_try_ratio", "ratio", "higher"),
    ("reals.self_s", "s", "lower"),
    ("reals.exp_iv.calls", "count", "lower"),
    ("reals.exp_iv.self_s", "s", "lower"),
    ("reals.sin_iv.calls", "count", "lower"),
    ("reals.sin_iv.self_s", "s", "lower"),
    ("reals.pi_iv.calls", "count", "lower"),
    ("reals.pi_iv.self_s", "s", "lower"),
    ("reals.log_iv.calls", "count", "lower"),
    ("reals.log_iv.self_s", "s", "lower"),
    ("reals.sqrt_iv.calls", "count", "lower"),
    ("reals.sqrt_iv.self_s", "s", "lower"),
    ("reals.enclosure.calls", "count", "lower"),
    ("reals.enclosure.self_s", "s", "lower"),
    ("relmetric.self_s", "s", "lower"),
    ("relmetric.rel_dist.calls", "count", "lower"),
    ("relmetric.rel_dist.self_s", "s", "lower"),
    ("relmetric.abs_dist.calls", "count", "lower"),
    ("relmetric.abs_dist.self_s", "s", "lower"),
    ("relmetric.sample.calls", "count", "lower"),
    ("relmetric.sample.points", "count", "lower"),
    ("relmetric.sample.self_s", "s", "lower"),
    ("condition.self_s", "s", "lower"),
    ("condition.spectral_norm.calls", "count", "lower"),
    ("condition.spectral_norm.self_s", "s", "lower"),
    ("condition.kappa_sampled.calls", "count", "lower"),
    ("condition.kappa_sampled.self_s", "s", "lower"),
    ("condition.kappa_sampled.unconverged", "count", "lower"),
    ("condition.kappa_sampled.domain_failures", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.evaluate.calls", "count", "lower"),
    ("catalog.evaluate.self_s", "s", "lower"),
    ("catalog.exact.calls", "count", "lower"),
    ("catalog.exact.self_s", "s", "lower"),
    ("catalog.sin_in_precision.calls", "count", "lower"),
    ("catalog.sin_in_precision.self_s", "s", "lower"),
    ("catalog.babylonian_sqrt.calls", "count", "lower"),
    ("catalog.babylonian_sqrt.self_s", "s", "lower"),
    ("amenability.self_s", "s", "lower"),
    ("amenability.probe.calls", "count", "lower"),
    ("amenability.probe.self_s", "s", "lower"),
    ("amenability.probe.points", "count", "lower"),
    ("amenability.excess_factor.calls", "count", "lower"),
    ("amenability.excess_factor.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _t_of(p) -> int:
    return p if isinstance(p, int) else p.t


def _fp_t(args, kwargs) -> int:
    p = kwargs.get("p", args[-1] if len(args) in (2, 3) else None)
    return _t_of(p) if p is not None else 0


class Tracer:
    """Installs span-recording wrappers and summarises what they record."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_aux = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end, self.span_aux):
            del arr[:]
        self.counters.clear()
        self._stack[:] = [-1]

    # -- wrappers --------------------------------------------------------

    def wrapper(self, name: str, fn, aux=None, after=None, variant=None):
        """A span-recording stand-in for fn.

        ``aux(args, kwargs)`` gives the span's integer detail, ``after(out)``
        updates counters from the result, and ``variant`` = (name, test)
        records the span under another name when ``test(args)`` holds.
        """
        nid = self._id(name)
        vid, vtest = (self._id(variant[0]), variant[1]) if variant else (nid, None)
        names, parents, starts, ends, auxs = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.span_aux)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(vid if vtest is not None and vtest(args) else nid)
            parents.append(stack[-1])
            auxs.append(aux(args, kwargs) if aux is not None else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr: str, name: str, **kw):
        """Replace module.attr in every stabilis namespace that holds it."""
        orig = getattr(module, attr)
        new = self.wrapper(name, orig, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stabilis" or mod_name.startswith("stabilis.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, new)

    def wrap_method(self, base: type, attr: str, name: str, **kw):
        """Wrap attr on base and on every subclass that defines its own."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                self._patch(cls, attr, self.wrapper(name, vars(cls)[attr], **kw))

    def install(self):
        from stabilis import amenability, catalog, condition, fpcore, harness, reals, relmetric

        count = self.counters
        is_real = lambda args: isinstance(args[0], reals.CertifiedReal)  # noqa: E731
        for op in ("fp_add", "fp_sub", "fp_mul", "fp_div"):
            self.wrap_function(fpcore, op, f"fpcore.{op}", aux=_fp_t)
        self.wrap_function(fpcore, "round_to_nearest", "fpcore.fl", aux=_fp_t,
                           variant=("fpcore.fl_ziv", is_real))
        for fn in ("exp_iv", "log_iv", "sqrt_iv", "pi_iv", "ln2_iv"):
            self.wrap_function(reals, fn, f"reals.{fn}")
        self.wrap_function(reals, "sin_iv", "reals.sin_iv")
        self.wrap_function(reals, "cos_iv", "reals.sin_iv")  # sin_iv and cos_iv together
        self.wrap_method(reals.CertifiedReal, "enclosure", "reals.enclosure",
                         aux=lambda args, kw: args[1] if len(args) > 1 else kw["bits"])
        self.wrap_function(relmetric, "rel_dist", "relmetric.rel_dist")
        self.wrap_function(relmetric, "abs_dist", "relmetric.abs_dist")
        self.wrap_function(relmetric, "geodesic_point", "relmetric.geodesic_point")
        n_arg = lambda args, kw: args[2] if len(args) > 2 else kw["n"]  # noqa: E731
        self.wrap_function(relmetric, "rel_ball_sample", "relmetric.sample", aux=n_arg)
        self.wrap_function(relmetric, "rel_sphere_sample", "relmetric.sample", aux=n_arg)
        for fn in ("spectral_norm", "kappa_closed_form", "kappa_jacobian", "kappa_from_jacobian"):
            self.wrap_function(condition, fn, f"condition.{fn}")

        def sampled_counts(rep):
            count["condition.kappa_sampled.unconverged"] += not rep.converged
            count["condition.kappa_sampled.domain_failures"] += rep.domain_failures

        self.wrap_function(condition, "kappa_sampled", "condition.kappa_sampled", after=sampled_counts)
        self.wrap_method(catalog.NumericalAlgorithm, "evaluate", "catalog.evaluate")
        for method in ("exact", "jacobian", "kappa_closed"):
            self.wrap_method(catalog.CatalogFunction, method, f"catalog.{method}")
        for fn in ("sin_in_precision", "babylonian_sqrt", "high_precision_sin"):
            self.wrap_function(catalog, fn, f"catalog.{fn}")

        def probe_counts(verdict):
            count["amenability.probe.points"] += verdict.samples_used

        self.wrap_function(amenability, "amenability_probe", "amenability.probe", after=probe_counts)
        self.wrap_function(amenability, "excess_factor", "amenability.excess_factor")
        for fn in ("strassen_experiment", "sine_experiment"):
            self.wrap_function(harness, fn, f"harness.{fn}")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summary ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer metrics of the spans recorded since the last clear."""
        n = len(self.span_start)
        k = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.intc) if n else np.zeros(0, np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc) if n else np.zeros(0, np.intc)
        start = np.frombuffer(self.span_start, dtype=np.float64) if n else np.zeros(0)
        end = np.frombuffer(self.span_end, dtype=np.float64) if n else np.zeros(0)
        aux = np.frombuffer(self.span_aux, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
        own = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        # inclusive time, counting a recursive call once
        outermost = ~has_parent | (name[np.where(has_parent, parent, 0)] != name)
        total_s = np.bincount(name[outermost], weights=dur[outermost], minlength=k)
        layer_of = [nm.split(".")[0] for nm in self.names]
        layer_ids = {layer: [i for i, l in enumerate(layer_of) if l == layer] for layer in set(layer_of)}

        def by(nm, what):
            i = self._ids.get(nm)
            return 0 if i is None else what[i]

        m: dict[str, float] = {}
        for layer, ids in layer_ids.items():
            m[f"{layer}.self_s"] = float(sum(self_s[i] for i in ids))
        for nm in self.names:
            m[f"{nm}.calls"] = int(by(nm, calls))
            m[f"{nm}.self_s"] = float(by(nm, self_s))
            m[f"{nm}.total_s"] = float(by(nm, total_s))
        # soft-float operations asked for by other layers
        fp_ids = np.array([self._ids[o] for o in FP_OPS if o in self._ids], dtype=np.intc)
        fpcore_ids = np.array(layer_ids.get("fpcore", []), dtype=np.intc)
        is_op = np.isin(name, fp_ids)
        outer = ~has_parent | ~np.isin(name[np.where(has_parent, parent, 0)], fpcore_ids)
        m["fpcore.ops"] = int(np.count_nonzero(is_op & outer))
        # the Ziv loop: enclosure calls made directly by a rounding of a real
        ziv = self._ids.get("fpcore.fl_ziv", -1)
        enc = self._ids.get("reals.enclosure", -1)
        is_ziv = name == ziv
        in_ziv = (name == enc) & has_parent & (name[np.where(has_parent, parent, 0)] == ziv)
        tries = np.bincount(parent[in_ziv], minlength=n)[:n][is_ziv]
        rounds = int(np.count_nonzero(is_ziv))
        m["fpcore.ziv_rounds"] = rounds
        m["fpcore.ziv_refinements"] = int(np.sum(np.maximum(tries - 1, 0)))
        m["fpcore.ziv_max_bits"] = int(aux[in_ziv].max()) if in_ziv.any() else 0
        m["fpcore.ziv_first_try_ratio"] = float(np.count_nonzero(tries == 1) / rounds) if rounds else 1.0
        m["relmetric.sample.points"] = int(aux[name == self._ids.get("relmetric.sample", -1)].sum())
        m["trace.spans"] = n
        m.update(self.counters)
        # per-op cost by precision, for the detail report
        for op in FP_OPS:
            i = self._ids.get(op)
            if i is None:
                continue
            sel = name == i
            for t in np.unique(aux[sel]):
                st = sel & (aux == t)
                m[f"{op}[t={t}].calls"] = int(np.count_nonzero(st))
                m[f"{op}[t={t}].self_s"] = float(own[st].sum())
        return m


def per_layer_metrics(rounds: list[dict], overhead_s: float) -> dict:
    """Counts from the rounds (equal in every round), times as medians."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            vals = [r.get(name, 0) for r in rounds]
            value = statistics.median(vals) if unit in ("s", "ratio") else vals[0]
        out[name] = {"value": value, "unit": unit}
    return out


def counts_repeat(rounds: list[dict]) -> list[str]:
    """Names of count metrics that differ between rounds."""
    return [name for name, unit, _ in PER_LAYER
            if unit in ("count", "bits") and len({r.get(name, 0) for r in rounds}) > 1]
