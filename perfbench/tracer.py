"""Span tracer for the package's public functions, installed from outside the
package: nothing under ``src/`` knows about it.

Each traced function is wrapped by rebinding it in every ``alpha2minor``
module namespace that holds the same object, because ``from .x import f``
copies the binding into each importing module.  A function that no longer
exists is reported in ``absent`` and its metrics read zero; the run goes on.
Cache statistics come from ``cache_info()`` of the saved original objects.

A span's self time is its duration minus the time of the spans it encloses.
Calls of a layer made from inside the same layer (``delete_vertices`` into
``induced_subgraph``, or recursion) belong to the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> (module of alpha2minor, public functions traced as that layer)
LAYERS = {
    "generate.enumerate": ("generate", ("enumerate_alpha2",)),
    "iso.invariant_key": ("iso", ("invariant_key",)),
    "iso.are_isomorphic": ("iso", ("are_isomorphic",)),
    "graphs.is_k_connected": ("graphs", ("is_k_connected",)),
    "graphs.subgraph": ("graphs", ("induced_subgraph", "delete_vertices")),
    "graphs.graph6": ("graphs", ("parse_graph6", "emit_graph6")),
    "invariants.chi": ("invariants", ("chromatic_number_alpha2",)),
    "invariants.alpha": ("invariants", ("alpha_at_most_two",)),
    "matching.maximum_matching": ("matching", ("maximum_matching",)),
    "cliques.max_clique": ("cliques", ("max_clique",)),
    "cliques.maximal_cliques": ("cliques", ("maximal_cliques",)),
    "packing.find_p3_packing": ("packing", ("find_p3_packing",)),
    "packing.check_packing_conditions": ("packing", ("check_packing_conditions",)),
    "packing.exchange_improve": ("packing", ("exchange_improve",)),
    "minors.find_minor_bruteforce": ("minors", ("find_minor_bruteforce",)),
    "minors.validate_model": ("minors", ("validate_model",)),
    "construct.half": ("construct", ("construct_half_minor",)),
    "construct.chi": ("construct", ("construct_chi_minor",)),
}
CONSTRUCT_LAYERS = ("construct.half", "construct.chi")

# The trace-step kinds a certificate can record (see construct.py).
TRACE_KINDS = (
    "CliqueDirect",
    "DeleteVertexEven",
    "FallbackConnectivity",
    "FallbackClique",
    "PackAndContract",
    "SmallCaseEdge",
    "MaxDegreeStar",
    "DelegateHalf",
    "DeleteNoncriticalVertex",
    "JoinDecompose",
    "CliqueAbsorb",
    "ParityGlue",
)

# Reported stats per layer, in metric order: <layer>.<stat>.
LAYER_STATS = (
    ("generate.enumerate", ("calls", "self_s")),
    ("iso.invariant_key", ("calls", "self_s")),
    ("iso.are_isomorphic", ("calls", "self_s", "true_ratio")),
    ("graphs.is_k_connected", ("calls", "self_s", "true_ratio")),
    ("graphs.subgraph", ("calls", "self_s")),
    ("invariants.chi", ("calls", "self_s", "hit_ratio")),
    ("invariants.alpha", ("calls", "self_s", "hit_ratio")),
    ("matching.maximum_matching", ("calls", "self_s")),
    ("packing.find_p3_packing", ("calls", "self_s", "found_ratio")),
    ("packing.check_packing_conditions", ("self_s",)),
    ("packing.exchange_improve", ("calls",)),
    ("cliques.maximal_cliques", ("calls", "self_s")),
    ("cliques.max_clique", ("calls", "self_s", "hit_ratio")),
    ("minors.find_minor_bruteforce", ("calls", "self_s", "cap_exceeded")),
    ("minors.validate_model", ("calls", "self_s")),
    ("graphs.graph6", ("calls", "self_s")),
    ("construct.half", ("calls",)),
    ("construct.chi", ("calls",)),
)
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "true_ratio": "ratio",
    "found_ratio": "ratio",
    "hit_ratio": "ratio",
    "cap_exceeded": "count",
}
EXTRA_METRICS = (
    ("construct.self_s", "s"),
    ("construct.call_p50_ms", "ms"),
    ("construct.call_tail_ms", "ms"),
    ("cli.self_s", "s"),
    *((f"construct.trace.{kind}", "count") for kind in TRACE_KINDS),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYER_STATS
        for stat in stats
    }
    units.update(EXTRA_METRICS)
    return units


def tail_percentile(samples: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond
    it; the median when there are too few samples for any."""
    for pct in (99.99, 99.9, 99.0, 90.0):
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def nearest_rank(sorted_values: list[int], pct: float) -> int:
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, ns of enclosed spans]
        self.top_ns = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.true: Counter = Counter()
        self.found: Counter = Counter()
        self.raised: dict[str, Counter] = defaultdict(Counter)
        self.construct_ns: list[int] = []
        self.kinds: Counter = Counter()
        self.absent: list[str] = []
        self.originals: dict[str, list] = defaultdict(list)
        self.cache_start: dict[str, tuple[int, int] | None] = {}

    def install(self, package: str = "alpha2minor") -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(f"{package}.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                self.originals[layer].append(original)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        self.cache_start = {layer: self._cache(layer) for layer in LAYERS}

    def _cache(self, layer: str) -> tuple[int, int] | None:
        infos = [f.cache_info() for f in self.originals[layer] if hasattr(f, "cache_info")]
        if not infos:
            return None
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _wrap(self, layer: str, fn):
        stack = self.stack
        clock = time.perf_counter_ns
        is_constructor = layer in CONSTRUCT_LAYERS

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[layer][type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_ns += elapsed
                if is_constructor:
                    self.construct_ns.append(elapsed)
            if result is True:
                self.true[layer] += 1
            if result is not None:
                self.found[layer] += 1
            if is_constructor:
                for step in getattr(result, "trace", ()):
                    self.kinds[getattr(step, "kind", "?")] += 1
            return result

        return wrapper

    def counts(self) -> dict:
        """Deterministic counts: identical for two calls on the same input."""
        layers = {}
        for layer in LAYERS:
            start, end = self.cache_start.get(layer), self._cache(layer)
            layers[layer] = {
                "calls": self.calls[layer],
                "true": self.true[layer],
                "found": self.found[layer],
                "raised": dict(sorted(self.raised[layer].items())),
                "cache_hits": None if end is None else end[0] - start[0],
                "cache_misses": None if end is None else end[1] - start[1],
            }
        return {
            "layers": layers,
            "absent": sorted(self.absent),
            "trace_kinds": dict(sorted(self.kinds.items())),
            "construct_tail_percentile": tail_percentile(len(self.construct_ns)),
        }

    def timings(self, wall_ns: int) -> dict:
        durations = sorted(self.construct_ns)
        return {
            "wall_ns": wall_ns,
            "cli_self_ns": wall_ns - self.top_ns,
            "self_ns": {layer: self.self_ns[layer] for layer in LAYERS},
            "construct_p50_ns": nearest_rank(durations, 50.0),
            "construct_tail_ns": nearest_rank(durations, tail_percentile(len(durations))),
        }


def layer_metrics(counts: dict, timings: dict) -> dict[str, float]:
    """Per-layer metric values of one traced call, except the overhead ratio,
    which needs an untraced call."""
    values: dict[str, float] = {}
    layers = counts["layers"]
    for layer, stats in LAYER_STATS:
        c = layers[layer]
        calls = c["calls"]
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = timings["self_ns"][layer] / 1e9
            elif stat == "true_ratio":
                value = c["true"] / calls if calls else 0.0
            elif stat == "found_ratio":
                value = c["found"] / calls if calls else 0.0
            elif stat == "hit_ratio":
                looked_up = (c["cache_hits"] or 0) + (c["cache_misses"] or 0)
                value = c["cache_hits"] / looked_up if looked_up else 0.0
            else:  # cap_exceeded
                value = c["raised"].get("OracleCapExceeded", 0)
            values[f"{layer}.{stat}"] = value
    values["construct.self_s"] = sum(timings["self_ns"][l] for l in CONSTRUCT_LAYERS) / 1e9
    values["construct.call_p50_ms"] = timings["construct_p50_ns"] / 1e6
    values["construct.call_tail_ms"] = timings["construct_tail_ns"] / 1e6
    values["cli.self_s"] = timings["cli_self_ns"] / 1e9
    for kind in TRACE_KINDS:
        values[f"construct.trace.{kind}"] = counts["trace_kinds"].get(kind, 0)
    return values
