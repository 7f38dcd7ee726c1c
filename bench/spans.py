"""In-memory spans around the public functions of the fracapprox layers.

The tracer wraps every function named in a layer module's ``__all__`` and
installs the wrapper on every ``fracapprox.*`` module attribute bound to the
original function object, because ``diagnostics``, ``analysis`` and ``cli``
import ``measure_of_ball``, ``layer_hit_mask`` and others by name.  A span
records its name, start, end, parent span and a small per-call detail taken
from the arguments or the result; spans stay in memory until
``layer_metrics`` reduces them.  Calls made inside pool workers are out of
reach: the parent's wait for them is part of ``cli.main``'s self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


def _n_points(args, result):
    return int(result.shape[0])


def _mass(args, result):
    return (bool(result.converged), int(result.depth))


def _hit_mask(args, result):
    points, n = args[0], args[1]
    return (len(points), int(n), int(result.sum()))


def _length(args, result):
    return len(result)


def _counterexample(args, result):
    return not result.is_hyperplane


def _cover(args, result):
    balls = args[0] if args else []
    chosen = result[0]
    return (len(balls), len(chosen))


def _certificate(args, result):
    return (int(result.trials), int(result.discarded))


# function -> how its span detail is taken from (positional args, result)
_DETAILS = {
    "ifs.sample_measure": _n_points,
    "ifs.measure_of_ball": _mass,
    "ifs.measure_of_slab_in_ball": _mass,
    "approx.layer_hit_mask": _hit_mask,
    "approx.enumerate_rationals": _length,
    "geometry.hyperplane_witness": _counterexample,
    "geometry.greedy_cover": _cover,
    "diagnostics.certify_doubling": _certificate,
    "diagnostics.certify_decay": _certificate,
    "diagnostics.certify_regularity": _certificate,
    "analysis.approximant_points": _n_points,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "detail")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.detail = None


class Tracer:
    """Span recorder; ``install`` patches the modules, ``remove`` undoes it."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.spans = []
        self._open = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        detail = _DETAILS.get(name)
        positional = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if detail is not None:
                if kwargs:
                    bound = positional.bind(*args, **kwargs)
                    args = tuple(bound.arguments.values())
                span.detail = detail(args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "fracapprox" or n.startswith("fracapprox."))
                   and m is not None]
        for layer in self.layers:
            mod = sys.modules[f"fracapprox.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, wrapper)
                            self._patched.append((target, key, fn))

    def remove(self):
        for target, key, fn in reversed(self._patched):
            setattr(target, key, fn)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self._open = []

    def span_self_times(self):
        """(span, self time) pairs: duration minus that of direct children,
        which never overlap as calls nest on one thread."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
        return [(s, (s.end - s.start) - child.get(id(s), 0.0)) for s in self.spans]

    def self_times(self):
        """name -> total self time of its spans."""
        out = {}
        for s, own in self.span_self_times():
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def calls_by_layer(self):
        counts = {layer: 0 for layer in self.layers}
        for s in self.spans:
            counts[s.name.split(".", 1)[0]] += 1
        return counts


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, bytes_written):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    own = tracer.self_times()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return own.get(name, 0.0)

    m = {}
    for fn in ("ifs.measure_of_ball", "ifs.measure_of_slab_in_ball",
               "approx.enumerate_rationals"):
        durations = sorted(s.end - s.start for s in spans(fn))
        m[f"{fn}.calls"] = len(durations)
        m[f"{fn}.self_s"] = self_s(fn)
        m[f"{fn}.p50_ms"] = _quantile_ms(durations, 50)
        m[f"{fn}.p99_ms"] = _quantile_ms(durations, 99)

    mass = [s.detail for s in spans("ifs.measure_of_ball")
            + spans("ifs.measure_of_slab_in_ball")]
    m["ifs.mass.converged_frac"] = _frac(sum(c for c, _ in mass), len(mass))
    m["ifs.mass.depth_mean"] = _frac(sum(d for _, d in mass), len(mass))

    m["ifs.sample_measure.calls"] = len(spans("ifs.sample_measure"))
    m["ifs.sample_measure.points"] = sum(s.detail for s in spans("ifs.sample_measure"))
    m["ifs.sample_measure.self_s"] = self_s("ifs.sample_measure")
    m["ifs.bundled_system.self_s"] = self_s("ifs.bundled_system")

    certs = []
    for kind in ("doubling", "decay", "regularity"):
        name = f"diagnostics.certify_{kind}"
        m[f"{name}.self_s"] = self_s(name)
        certs += [s.detail for s in spans(name)]
    m["diagnostics.discard_frac"] = _frac(sum(d for _, d in certs),
                                          sum(t for t, _ in certs))

    masks = [s.detail for s in spans("approx.layer_hit_mask")]
    m["approx.layer_hit_mask.calls"] = len(masks)
    m["approx.layer_hit_mask.self_s"] = self_s("approx.layer_hit_mask")
    m["approx.layer_hit_mask.point_q_tests"] = sum(N * 2**n for N, n, _ in masks)
    m["approx.layer_hit_mask.hit_frac"] = _frac(sum(h for _, _, h in masks),
                                                sum(N for N, _, _ in masks))
    m["approx.enumerate_rationals.returned"] = sum(
        s.detail for s in spans("approx.enumerate_rationals"))

    witness = spans("geometry.hyperplane_witness")
    m["geometry.hyperplane_witness.calls"] = len(witness)
    m["geometry.hyperplane_witness.self_s"] = self_s("geometry.hyperplane_witness")
    m["geometry.hyperplane_witness.counterexamples"] = sum(s.detail for s in witness)
    covers = [s.detail for s in spans("geometry.greedy_cover")]
    m["geometry.greedy_cover.calls"] = len(covers)
    m["geometry.greedy_cover.input_balls"] = sum(i for i, _ in covers)
    m["geometry.greedy_cover.kept_frac"] = _frac(sum(k for _, k in covers),
                                                 sum(i for i, _ in covers))
    m["geometry.greedy_cover.self_s"] = self_s("geometry.greedy_cover")

    for fn in ("build_dn_cover", "build_cdn_cover", "hs_upper_bound",
               "audit_hyperplane_lemma", "layer_decay_experiment",
               "approximant_points", "box_dimension"):
        m[f"analysis.{fn}.self_s"] = self_s(f"analysis.{fn}")
    approximants = spans("analysis.approximant_points")
    drawn = sum(s.detail for s in spans("ifs.sample_measure")
                if s.parent in approximants)
    m["analysis.approximant_points.kept_frac"] = _frac(
        sum(s.detail for s in approximants), drawn)

    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.bytes_written"] = bytes_written
    return m
