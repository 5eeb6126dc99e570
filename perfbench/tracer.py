"""Traced run: spans and counts at hopflab's layer boundaries, from outside.

The tracer replaces each traced public function with a wrapper at every
binding the program calls through: the defining module's attribute, every
``from ... import`` copy in another ``hopflab`` module, the class attribute of
a method. Nothing under ``src/`` changes, and the originals are restored when
the ``installed()`` block ends, so untraced runs pay nothing.

Each call becomes a span (function, parent span, start, end) kept in memory
in flat arrays and written out at the end. Self time is a span's duration
minus the time covered by its child spans.
"""

import contextlib
import inspect
import os
import sys
import time
from array import array

import numpy as np


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (key, reported kinds, counters). A metric is named <key>.<kind>; the key is
# the function's dotted path under hopflab, except as listed in _PATH. "calls"
# and "self_s" come from the spans; counters maps each other counted kind to
# the count one call adds, computed from (args, kwargs, result).
# integrate_sigma and austere_search get their counters in Tracer; metrics()
# derives the per_call and per_launch ratios.
TRACED = (
    ("kernels.expm3_batch", ("calls", "matrices", "self_s"),
     {"matrices": lambda a, k, r: r.size // 9}),
    ("kernels.group_orbit_apply", ("calls", "points", "self_s"),
     {"points": lambda a, k, r: len(r)}),
    ("ambient.herm", ("calls", "elements", "self_s"),
     {"elements": lambda a, k, r: r.size}),
    ("ambient.project_horizontal", ("calls", "self_s"), {}),
    ("ambient.exp", ("calls", "self_s"), {}),
    ("ambient.normalize_rep", ("calls", "self_s"), {}),
    ("actions.orbit_geometry", ("calls", "points", "self_s"),
     {"points": lambda a, k, r: max(1, r.z.size // 3)}),
    ("actions.phi_profile", ("calls", "self_s"), {}),
    ("actions.hopf_directions", ("calls", "self_s"), {}),
    ("constructor.integrate_sigma", ("calls", "rk4_steps", "truncated", "self_s"), {}),
    ("constructor.austere_search",
     ("launches", "probe_rejected", "kept", "kept_per_launch", "self_s"), {}),
    ("constructor.build_hypersurface", ("calls", "self_s"), {}),
    ("constructor.strongly_2hopf_certify", ("calls", "self_s"), {}),
    ("constructor.leviflat_cmc_certify", ("calls", "self_s"), {}),
    ("hypersurface.HypersurfacePatch.eval", ("calls", "points", "self_s"),
     {"points": lambda a, k, r: r.size // 3}),
    ("hypersurface.frames_at", ("calls", "points", "self_s"),
     {"points": lambda a, k, r: len(r.params)}),
    ("hypersurface.shape_data", ("calls", "points", "points_per_call", "self_s"),
     {"points": lambda a, k, r: len(r.E)}),
    ("hypersurface.frame_derivative_data", ("calls", "self_s"), {}),
    ("hypersurface.classify", ("calls", "self_s"), {}),
    ("hypersurface.verify_gauss_codazzi", ("calls", "self_s"), {}),
    ("scene.save_scene", ("bytes", "self_s"), {"bytes": _file_bytes}),
    ("scene.write_mesh_csv", ("bytes", "self_s"), {"bytes": _file_bytes}),
)
# the _kernels module reports as "kernels" (a metric name must start with a
# letter or a digit); SpaceForm methods report without their class
_PATH = {
    "kernels.expm3_batch": "_kernels.expm3_batch",
    "kernels.group_orbit_apply": "_kernels.group_orbit_apply",
    "ambient.herm": "ambient.SpaceForm.herm",
    "ambient.project_horizontal": "ambient.SpaceForm.project_horizontal",
    "ambient.exp": "ambient.SpaceForm.exp",
    "ambient.normalize_rep": "ambient.SpaceForm.normalize_rep",
}
KEYS = [key for key, _, _ in TRACED]

# every per-layer metric, in report order: (name, unit, better)
_UNIT_BETTER = {"self_s": ("s", "lower"), "bytes": ("B", "lower"),
                "kept": ("count", "higher"), "kept_per_launch": ("ratio", "higher"),
                "points_per_call": ("ratio", "higher")}
PER_LAYER = [(f"{key}.{kind}", *_UNIT_BETTER.get(kind, ("count", "lower")))
             for key, kinds, _ in TRACED for kind in kinds]
PER_LAYER += [
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_items_per_s", "1/s", "higher"),
    ("trace.selfcheck_violations", "count", "lower"),
    ("trace.count_mismatches", "count", "lower"),
]

# Self-check: counters that must read nonzero (work expected) or zero (no
# work expected) on each workload. A nonzero-expected counter reading zero
# usually means a binding the tracer missed.
_EVERYWHERE = ("ambient.herm.calls", "ambient.project_horizontal.calls",
               "ambient.normalize_rep.calls", "actions.orbit_geometry.calls")
EXPECT = {
    "construct": {
        "nonzero": _EVERYWHERE + (
            "kernels.expm3_batch.calls", "kernels.group_orbit_apply.calls",
            "constructor.integrate_sigma.calls", "constructor.build_hypersurface.calls",
            "constructor.strongly_2hopf_certify.calls", "constructor.leviflat_cmc_certify.calls",
            "hypersurface.HypersurfacePatch.eval.calls", "hypersurface.frames_at.calls",
            "hypersurface.shape_data.calls", "hypersurface.frame_derivative_data.calls",
            "hypersurface.classify.calls", "scene.save_scene.bytes",
            "scene.write_mesh_csv.bytes"),
        "zero": ("constructor.austere_search.launches",
                 "hypersurface.verify_gauss_codazzi.calls"),
    },
    "austere": {
        "nonzero": _EVERYWHERE + (
            "constructor.integrate_sigma.calls", "constructor.austere_search.launches",
            "constructor.austere_search.probe_rejected", "constructor.austere_search.kept"),
        "zero": ("hypersurface.shape_data.calls", "hypersurface.frames_at.calls",
                 "hypersurface.HypersurfacePatch.eval.calls",
                 "constructor.build_hypersurface.calls", "hypersurface.classify.calls",
                 "hypersurface.verify_gauss_codazzi.calls", "scene.save_scene.bytes"),
    },
    "catalog": {
        "nonzero": ("ambient.herm.calls", "ambient.project_horizontal.calls",
                    "ambient.exp.calls", "kernels.expm3_batch.calls",
                    "hypersurface.HypersurfacePatch.eval.calls", "hypersurface.frames_at.calls",
                    "hypersurface.shape_data.calls", "hypersurface.frame_derivative_data.calls",
                    "hypersurface.classify.calls", "hypersurface.verify_gauss_codazzi.calls"),
        "zero": ("constructor.integrate_sigma.calls", "actions.orbit_geometry.calls",
                 "constructor.austere_search.launches", "constructor.build_hypersurface.calls",
                 "scene.save_scene.bytes"),
    },
}


class Tracer:
    """Spans and per-function counts for one traced pass."""

    def __init__(self):
        self.keys = KEYS
        self.func = array("i")     # span -> index into keys
        self.parent = array("i")   # span -> parent span, -1 at the top
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = []           # open spans
        self.counts = {key: dict.fromkeys(counters, 0) for key, _, counters in TRACED}
        self._search = []          # funnel tallies of the open austere searches

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fid, fn, counters):
        key = self.keys[fid]
        if key == "constructor.integrate_sigma":
            counters = self._sigma_counters(fn)
        elif key == "constructor.austere_search":
            fn = self._with_funnel(fn)
        counts = self.counts[key]
        counters = tuple(counters.items())
        stack = self._stack
        func, parent, t0s, t1s = self.func, self.parent, self.t0, self.t1
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            t1s.append(0.0)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            for kind, count in counters:
                counts[kind] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sigma_counters(self, fn):
        sig = inspect.signature(fn)
        default = sig.parameters["n_steps"].default
        search = self._search

        def rk4_steps(args, kwargs, sigma):
            if search:   # inside austere_search: tally the call as a probe or a full launch
                n_steps = sig.bind(*args, **kwargs).arguments.get("n_steps", default)
                tally = search[-1]
                tally["probe" if n_steps == tally["probe_steps"] else "full"] += 1
            return len(sigma.ts) - 1

        self.counts["constructor.integrate_sigma"].update(rk4_steps=0, truncated=0)
        return {"rk4_steps": rk4_steps,
                "truncated": lambda a, k, sigma: int(sigma.truncated)}

    def _with_funnel(self, fn):
        """austere_search plus its rejection funnel, derived from its sigma calls.

        A probe is an integrate_sigma call with n_steps == max(10, n_steps // 8)
        inside the search; every launch starts with one. A probe that is not
        followed by a full-length integration was rejected.
        """
        sig = inspect.signature(fn)
        default = sig.parameters["n_steps"].default
        search = self._search
        counts = self.counts["constructor.austere_search"]
        counts.update(launches=0, probe_rejected=0, kept=0)

        def search_with_funnel(*args, **kwargs):
            n_steps = sig.bind(*args, **kwargs).arguments.get("n_steps", default)
            search.append({"probe_steps": max(10, n_steps // 8), "probe": 0, "full": 0})
            try:
                found = fn(*args, **kwargs)
            finally:
                tally = search.pop()
            counts["launches"] += tally["probe"]
            counts["probe_rejected"] += tally["probe"] - tally["full"]
            counts["kept"] += len(found)
            return found

        return search_with_funnel

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every traced function; restore on exit."""
        import hopflab.cli  # noqa: F401  (load every module that binds a traced name)

        patched = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hopflab" or name.startswith("hopflab."))]
        try:
            for fid, (key, _, counters) in enumerate(TRACED):
                module, attr = _PATH.get(key, key).split(".", 1)
                owner = sys.modules[f"hopflab.{module}"]
                if "." in attr:    # a method: wrap it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[meth]
                    patched.append((cls, meth, fn))
                    setattr(cls, meth, self._wrapper(fid, fn, counters))
                    continue
                originals = [getattr(owner, attr)]
                if module == "_kernels":
                    # the pure twin calls its own module global internally
                    pure = getattr(sys.modules["hopflab._kernels.pure"], attr)
                    if pure is not originals[0]:
                        originals.append(pure)
                for fn in originals:
                    wrapper = self._wrapper(fid, fn, counters)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                patched.append((mod, name, fn))
                                setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, name, fn in reversed(patched):
                setattr(owner, name, fn)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name: exact counts, self time in seconds."""
        func = np.frombuffer(self.func, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.t1, np.float64) - np.frombuffer(self.t0, np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        nkeys = len(self.keys)
        calls = np.bincount(func, minlength=nkeys)
        self_s = np.bincount(func, weights=dur - child, minlength=nkeys)
        out = {}
        for fid, key in enumerate(self.keys):
            out[f"{key}.calls"] = int(calls[fid])
            out[f"{key}.self_s"] = float(self_s[fid])
            for kind, val in self.counts[key].items():
                out[f"{key}.{kind}"] = val
        sd_calls = out["hypersurface.shape_data.calls"]
        out["hypersurface.shape_data.points_per_call"] = (
            out["hypersurface.shape_data.points"] / sd_calls if sd_calls else 0.0)
        launches = out["constructor.austere_search.launches"]
        out["constructor.austere_search.kept_per_launch"] = (
            out["constructor.austere_search.kept"] / launches if launches else 0.0)
        return out

    def write_spans(self, path):
        """Every span of the pass: names[func], parent span (-1 at top), t0, t1."""
        np.savez(path, names=np.array(self.keys), func=np.frombuffer(self.func, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 t0=np.frombuffer(self.t0, np.float64), t1=np.frombuffer(self.t1, np.float64))


def selfcheck(workload, values):
    """Names of counters that read zero where work is expected, or the reverse."""
    table = EXPECT[workload]
    lost = [name for name in table["nonzero"] if not values.get(name)]
    unexpected = [name for name in table["zero"] if values.get(name)]
    return lost, unexpected
