"""Per-layer tracing of one census run, from outside the program.

`Tracer.install()` wraps the public functions of each matchcov module (the
layers), plus the few private boundaries the metrics need, under every
module name that binds them.  Each call becomes a span.  A layer's self time
is its spans' time minus the time of their child spans, of any layer.

Spans are aggregated as they close instead of being stored: a census to n=8
opens hundreds of thousands, and only the per-layer totals are reported.
Nothing here changes arguments or results, so a traced run writes the same
report bytes as an untraced one.
"""

import functools
import inspect
import statistics
import sys
import time

# layer name -> module; `kernel` is matchcov._kernel (metric names must
# start with a letter or digit)
LAYERS = {
    "generate": "matchcov.generate",
    "graph": "matchcov.graph",
    "matching": "matchcov.matching",
    "tightcut": "matchcov.tightcut",
    "edges": "matchcov.edges",
    "census": "matchcov.census",
    "kernel": "matchcov._kernel",
}

# Functions the metrics name.  Each must exist: a rename fails loudly here
# instead of reading as zero.
REQUIRED = {
    "generate": ("generate_all_graphs", "CanonicalAugmenter.classes",
                 "CanonicalAugmenter.final_level"),
    "graph": ("is_connected", "is_three_connected", "is_claw_free",
              "canonical_graph6", "canonical_form", "parse_graph6"),
    "matching": ("is_bicritical", "is_matching_covered",
                 "enumerate_perfect_matchings", "count_pm_containing"),
    "tightcut": ("decompose", "find_nontrivial_tight_cut"),
    "edges": ("classify_all",),
    "census": ("run_census", "emit_report", "ingest_graph6", "_load_cache",
               "_classify_worker"),
    "kernel": ("canon_auto", "enumerate_pms", "count_pms", "first_tight_cut",
               "is_claw_free"),
}

# kernel module constants the fallback count reads
KERNEL_LIMITS = ("_C_MAX_CANON_N", "_C_MAX_MATCH_N", "_C_MAX_EDGES")

BACKEND_CODES = {"py": 0, "c": 1}


class Tracer:
    def __init__(self):
        self._children = []      # child-time accumulator per open span
        self._depth = dict.fromkeys(LAYERS, 0)
        self.layer_s = dict.fromkeys(LAYERS, 0.0)   # outermost spans only
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}          # (layer, name) -> [calls, inclusive seconds]
        self.counts = dict.fromkeys(
            ("graphs_out", "gen_canon_calls", "pms_listed", "subsets_scanned",
             "find_cut_hits", "bicritical_rejects", "py_fallbacks",
             "cache_rows_read", "cache_hits"), 0)
        self.classify_ms = []
        self._cache_keys = set()
        self._installed = []     # (owner, attribute, original)
        self._limits = None
        self.backend = None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer function under every binding in matchcov.*."""
        import matchcov  # noqa: F401  (loads every layer module)
        from matchcov import _kernel
        self._limits = tuple(getattr(_kernel, name) for name in KERNEL_LIMITS)
        self.backend = _kernel.BACKEND
        targets = []             # resolve everything before patching anything
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            targets += [(layer, name, *_resolve(mod, name))
                        for name in _targets(mod, REQUIRED[layer])]
        wrapped = {}             # id(original) -> wrapper
        for layer, name, owner, attr in targets:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(layer, name, fn)
            wrapped[id(fn)] = wrapper
            self._set(owner, attr, fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "matchcov" and not modname.startswith("matchcov."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)] is not val:
                    self._set(mod, attr, val, wrapped[id(val)])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _set(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, name, fn):
        hook = getattr(self, "_after_" + layer + "_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(layer)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, name, time.perf_counter() - t0)
                    if hook:
                        hook(args, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._exit(layer, name, dt)
            if hook:
                hook(args, result, dt)
            return result
        return wrapper

    def _enter(self, layer):
        self._depth[layer] += 1
        self._children.append(0.0)

    def _exit(self, layer, name, dt):
        child = self._children.pop()
        if self._children:
            self._children[-1] += dt
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_s[layer] += dt
        self.self_s[layer] += dt - child
        stat = self.calls.get((layer, name))
        if stat is None:
            stat = self.calls[(layer, name)] = [0, 0.0]
        stat[0] += 1
        stat[1] += dt

    # -- counters at the layer boundaries ----------------------------------

    def _after_generate_generate_all_graphs(self, args, item):
        self.counts["graphs_out"] += 1

    def _after_kernel_canon_auto(self, args, result, dt):
        if self._depth["generate"]:
            self.counts["gen_canon_calls"] += 1
        self.counts["py_fallbacks"] += args[0] > self._limits[0]

    def _match_fallback(self, n, eu):
        return n > self._limits[1] or len(eu) > self._limits[2]

    def _after_kernel_enumerate_pms(self, args, result, dt):
        self.counts["pms_listed"] += len(result)
        self.counts["py_fallbacks"] += self._match_fallback(args[0], args[1])

    def _after_kernel_count_pms(self, args, result, dt):
        self.counts["py_fallbacks"] += self._match_fallback(args[0], args[1])

    def _after_kernel_first_tight_cut(self, args, result, dt):
        eu, _, _, subsets = args
        self.counts["subsets_scanned"] += \
            len(subsets) if result < 0 else subsets.index(result) + 1
        self.counts["py_fallbacks"] += len(eu) > self._limits[2]

    def _after_tightcut_find_nontrivial_tight_cut(self, args, result, dt):
        self.counts["find_cut_hits"] += result is not None

    def _after_matching_is_bicritical(self, args, result, dt):
        self.counts["bicritical_rejects"] += not result

    def _after_edges_classify_all(self, args, result, dt):
        self.classify_ms.append(dt * 1e3)

    def _after_census__load_cache(self, args, result, dt):
        self.counts["cache_rows_read"] += len(result)
        self._cache_keys |= set(result)

    def _after_census_run_census(self, args, result, dt):
        _, records = result
        self.counts["cache_hits"] += sum(r.g6 in self._cache_keys for r in records)

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.counts
        out = {}

        def calls_and_time(layer, name, label=None):
            calls, secs = self.calls.get((layer, name), (0, 0.0))
            label = label or name
            out[f"{layer}.{label}.calls"] = (calls, "count")
            out[f"{layer}.{label}.s"] = (secs, "s")
            return calls

        out["generate.s"] = (self.layer_s["generate"], "s")
        out["generate.graphs_out"] = (c["graphs_out"], "count")
        out["generate.canon_calls"] = (c["gen_canon_calls"], "count")
        out["generate.accept_ratio"] = (
            _ratio(c["graphs_out"], c["gen_canon_calls"]), "ratio")
        for name in REQUIRED["graph"]:
            calls_and_time("graph", name)
        for name in REQUIRED["matching"]:
            calls_and_time("matching", name)
        out["matching.pms_listed"] = (c["pms_listed"], "count")
        out["matching.is_bicritical.reject_ratio"] = (
            _ratio(c["bicritical_rejects"], out["matching.is_bicritical.calls"][0]),
            "ratio")
        calls_and_time("tightcut", "decompose")
        finds = calls_and_time("tightcut", "find_nontrivial_tight_cut", "find_cut")
        out["tightcut.find_cut.hit_ratio"] = (_ratio(c["find_cut_hits"], finds), "ratio")
        out["tightcut.subsets_scanned"] = (c["subsets_scanned"], "count")
        calls_and_time("edges", "classify_all")
        p50, tail, pct = latency_summary(self.classify_ms)
        out["edges.classify_ms.p50"] = (p50, "ms")
        out["edges.classify_ms.tail"] = (tail, "ms")
        out["edges.classify_ms.tail_pct"] = (pct, "%")
        out["edges.classify_ms.samples"] = (len(self.classify_ms), "count")
        seconds = {key: secs for key, (_, secs) in self.calls.items()}
        out["census.cache_load_s"] = (seconds.get(("census", "_load_cache"), 0.0), "s")
        out["census.cache_rows_read"] = (c["cache_rows_read"], "count")
        out["census.cache_hits"] = (c["cache_hits"], "count")
        out["census.report_s"] = (seconds.get(("census", "emit_report"), 0.0), "s")
        for name in REQUIRED["kernel"]:
            calls_and_time("kernel", name)
        out["kernel.py_fallbacks"] = (c["py_fallbacks"], "count")
        out["kernel.backend"] = (BACKEND_CODES[self.backend], "code")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out


def latency_summary(samples):
    """(median, tail, tail percentile) of samples.

    The tail is the highest whole percentile, by nearest rank, with at least
    ten samples above it.  With ten samples or fewer there is none, and the
    maximum is reported as the 100th percentile.
    """
    if not samples:
        return 0.0, 0.0, 0
    xs = sorted(samples)
    n = len(xs)
    p50 = statistics.median(xs)
    for pct in range(99, 0, -1):
        rank = -(-n * pct // 100)
        if n - rank >= 10:
            return p50, xs[rank - 1], pct
    return p50, xs[-1], 100


def _ratio(num, den):
    return num / den if den else 0.0


def _targets(mod, required):
    """Public functions and methods defined in mod, plus the required names."""
    names = set(required)
    for attr, val in vars(mod).items():
        if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(val):
            names.add(attr)
        elif inspect.isclass(val):
            names.update(f"{attr}.{m}" for m, f in vars(val).items()
                         if inspect.isfunction(f) and not m.startswith("_"))
    return sorted(names)


def _resolve(mod, qualname):
    """(owner, attribute) for 'f' or 'Class.method' in mod; raises if absent."""
    owner = mod
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not inspect.isfunction(owner.__dict__.get(parts[-1])):
        raise AttributeError(f"{mod.__name__}.{qualname} is not a function; "
                             "the benchmark's layer table needs updating")
    return owner, parts[-1]
