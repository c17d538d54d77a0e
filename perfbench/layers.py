"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer by attribute
substitution at the sites the program calls them through (a module
global or a class attribute), records wall time, self time and call
counts per layer, and restores every original on exit.  Nothing here
edits program source; the end-to-end runs never install it.

A probe names one layer and every call site that reaches it.  Sites
that no longer exist are skipped; a probe with no live site reports its
metrics as absent (``None``) instead of failing, so a later change that
deletes a wrapped function keeps the benchmark running.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

_clock = time.perf_counter

#: Stands in for the result of a call that raised.
_FAILED = object()


@dataclass(frozen=True)
class Probe:
    """One layer and the call sites that lead into it.

    ``sites`` are ``"module:attr"`` or ``"module:Class.attr"`` strings.
    ``layer`` is the metric stem, or a function of the call's positional
    arguments that returns it.  ``count`` maps ``(args, result)`` to
    extra counter increments recorded next to the call.
    """

    name: str
    sites: tuple[str, ...]
    layer: object = None
    count: Optional[Callable] = None

    def layer_for(self, args) -> str:
        if callable(self.layer):
            return self.layer(args)
        return self.layer or self.name


def _hazard_filter_count(args, result):
    accepted, hit = result if isinstance(result, tuple) else (result, None)
    counts = {"hazards.filter.rejects": 0 if accepted else 1}
    if hit is not None:
        counts["hazards.cache.lookups"] = 1
        counts["hazards.cache.hits"] = 1 if hit else 0
    return counts


def _hazard_analysis_count(args, result):
    if isinstance(result, tuple):
        return {"hazards.cache.lookups": 1, "hazards.cache.hits": int(result[1])}
    return {}


def _match_count(args, result):
    return {
        "mapping.match.matches": len(result),
        "mapping.match.useful": 1 if result else 0,
    }


PROBES = (
    Probe("mapping.map", ("repro.mapping.mapper:async_tmap",
                          "repro.mapping.mapper:tmap")),
    Probe("network.decompose", ("repro.mapping.mapper:tech_decomp",
                                "repro.mapping.mapper:async_tech_decomp")),
    Probe("network.partition", ("repro.mapping.mapper:partition",),
          count=lambda args, result: {"network.cones": len(result)}),
    Probe("mapping.cover", ("repro.mapping.mapper:cover_cone",)),
    Probe("mapping.cuts.enumerate", ("repro.mapping.cover:enumerate_clusters",),
          count=lambda args, result: {
              "mapping.cuts.clusters": sum(len(v) for v in result.values())
          }),
    Probe("mapping.cuts.expression", ("repro.mapping.cover:cluster_expression",)),
    Probe("mapping.match", ("repro.mapping.cover:match_cluster",),
          count=_match_count),
    Probe("mapping.match.truth_table",
          ("repro.mapping.match:expression_truth_table",)),
    Probe("mapping.match.lookup", ("repro.mapping.match:find_matches",)),
    Probe("hazards.analysis", ("repro.hazards.cache:HazardCache.expression_analysis",),
          count=_hazard_analysis_count),
    Probe("hazards.filter", ("repro.hazards.cache:HazardCache.hazards_subset",),
          count=_hazard_filter_count),
    Probe("library.annotate", ("repro.library.library:Library.annotate_hazards",),
          layer=lambda args: f"library.annotate.{args[0].name}"),
    Probe("hazards.static1", ("repro.hazards.analyzer:find_static1_hazards",)),
    Probe("hazards.static0", ("repro.hazards.analyzer:find_static0_hazards",)),
    Probe("hazards.mic_dynamic", ("repro.hazards.analyzer:find_mic_dyn_haz_multilevel",
                                  "repro.hazards.analyzer:find_mic_dyn_haz_2level")),
    Probe("hazards.sic_dynamic", ("repro.hazards.analyzer:find_sic_dynamic_hazards",)),
    Probe("hazards.verdicts", ("repro.hazards.analyzer:HazardAnalysis.ensure_verdicts",)),
    Probe("hazards.fhf", ("repro.hazards.oracle:static_fhf",
                          "repro.hazards.oracle:dynamic_fhf",
                          "repro.hazards.dynamic:dynamic_fhf",
                          "repro.hazards.transition:static_fhf",
                          "repro.hazards.transition:dynamic_fhf")),
    Probe("library.anncache.store", ("repro.library.anncache:store_annotations",)),
    Probe("library.anncache.load", ("repro.library.anncache:load_annotations",)),
    Probe("io.read_blif", ("repro.io:read_blif",)),
    Probe("api.encode", ("repro.api.facade:netlist_blif",
                         "repro.api.facade:text_digest")),
    Probe("cache.result.lookup", ("repro.cache.resultcache:ResultCache.lookup",)),
)


def _resolve(site: str):
    """``(owner, attr, original)`` for a site, or ``None`` if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


@dataclass
class _Frame:
    child: float = 0.0


@dataclass
class _Sink:
    """One thread's accumulators (merged when the trace is read)."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    self_seconds: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    stack: list = field(default_factory=list)


class LayerTrace:
    """Install the probes, accumulate per-layer time and counts, restore."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.live: set[str] = set()
        self.live_sites: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._sinks: list[_Sink] = []
        self._lock = threading.Lock()

    def _sink(self) -> _Sink:
        sink = getattr(self._local, "sink", None)
        if sink is None:
            sink = self._local.sink = _Sink()
            with self._lock:
                self._sinks.append(sink)
        return sink

    def _enter(self):
        sink = self._sink()
        frame = _Frame()
        sink.stack.append(frame)
        return sink, frame, _clock()

    def _leave(self, probe, sink, frame, start, args, result) -> None:
        elapsed = _clock() - start
        sink.stack.pop()
        if sink.stack:
            sink.stack[-1].child += elapsed
        layer = probe.layer_for(args)
        sink.seconds[layer] += elapsed
        sink.self_seconds[layer] += elapsed - frame.child
        sink.calls[layer] += 1
        if probe.count is not None and result is not _FAILED:
            for name, value in probe.count(args, result).items():
                sink.counts[name] += value

    def _wrap(self, probe: Probe, original):
        trace = self
        if inspect.isgeneratorfunction(original):
            def generator(*args, **kwargs):
                sink, frame, start = trace._enter()
                produced = []
                try:
                    for item in original(*args, **kwargs):
                        produced.append(item)
                        yield item
                finally:
                    trace._leave(probe, sink, frame, start, args, produced)
            return generator

        def wrapper(*args, **kwargs):
            sink, frame, start = trace._enter()
            result = _FAILED
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                trace._leave(probe, sink, frame, start, args, result)
        return wrapper

    def install(self) -> "LayerTrace":
        for probe in self.probes:
            for site in probe.sites:
                resolved = _resolve(site)
                if resolved is None:
                    continue
                owner, attr, original = resolved
                setattr(owner, attr, self._wrap(probe, original))
                self._restore.append((owner, attr, original))
                self.live.add(probe.name)
                self.live_sites.add(site)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Merged ``(seconds, self_seconds, calls, counts)`` per layer."""
        seconds: dict = defaultdict(float)
        self_seconds: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            for target, source in ((seconds, sink.seconds),
                                   (self_seconds, sink.self_seconds),
                                   (calls, sink.calls),
                                   (counts, sink.counts)):
                for key, value in source.items():
                    target[key] += value
        return seconds, self_seconds, calls, counts


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: LayerTrace) -> dict[str, Optional[float]]:
    """The per-layer metrics this trace can give; ``None`` marks a layer
    whose wrapped functions no longer exist."""
    seconds, self_seconds, calls, counts = trace.totals()
    live = trace.live

    def need(probe, value):
        return value if probe in live else None

    map_s = seconds["mapping.map"]
    residual = (map_s - seconds["network.decompose"]
                - seconds["network.partition"] - seconds["mapping.cover"])
    metrics = {
        "network.decompose_s": need("network.decompose", seconds["network.decompose"]),
        "network.partition_s": need("network.partition", seconds["network.partition"]),
        "network.cones": need("network.partition", counts["network.cones"]),
        "mapping.cuts.enumerate_s": need("mapping.cuts.enumerate",
                                         seconds["mapping.cuts.enumerate"]),
        "mapping.cuts.clusters": need("mapping.cuts.enumerate",
                                      counts["mapping.cuts.clusters"]),
        "mapping.cuts.expression_s": need("mapping.cuts.expression",
                                          seconds["mapping.cuts.expression"]),
        "mapping.cuts.expression_calls": need("mapping.cuts.expression",
                                              calls["mapping.cuts.expression"]),
        "mapping.match.truth_table_s": need("mapping.match.truth_table",
                                            seconds["mapping.match.truth_table"]),
        "mapping.match.lookup_s": need("mapping.match.lookup",
                                       seconds["mapping.match.lookup"]),
        "mapping.match.calls": need("mapping.match", calls["mapping.match"]),
        "mapping.match.matches": need("mapping.match",
                                      counts["mapping.match.matches"]),
        "mapping.match.useful_ratio": need("mapping.match", _ratio(
            counts["mapping.match.useful"], calls["mapping.match"])),
        "mapping.cover_s": need("mapping.cover", seconds["mapping.cover"]),
        "mapping.cover.self_s": need("mapping.cover", self_seconds["mapping.cover"]),
        "mapping.residual_s": (residual if {"mapping.map", "network.decompose",
                                            "network.partition", "mapping.cover"}
                               <= live else None),
        "hazards.analysis_s": need("hazards.analysis", seconds["hazards.analysis"]),
        "hazards.analysis_calls": need("hazards.analysis", calls["hazards.analysis"]),
        "hazards.filter_s": need("hazards.filter", seconds["hazards.filter"]),
        "hazards.filter_calls": need("hazards.filter", calls["hazards.filter"]),
        "hazards.filter.reject_ratio": need("hazards.filter", _ratio(
            counts["hazards.filter.rejects"], calls["hazards.filter"])),
        # The memo's hit flag rides on the cached methods' results.
        "hazards.cache.hit_ratio": (
            _ratio(counts["hazards.cache.hits"], counts["hazards.cache.lookups"])
            if HAZARD_CACHE_SITE in trace.live_sites else None),
        "hazards.static1_s": need("hazards.static1", seconds["hazards.static1"]),
        "hazards.static0_s": need("hazards.static0", seconds["hazards.static0"]),
        "hazards.mic_dynamic_s": need("hazards.mic_dynamic",
                                      seconds["hazards.mic_dynamic"]),
        "hazards.sic_dynamic_s": need("hazards.sic_dynamic",
                                      seconds["hazards.sic_dynamic"]),
        "hazards.verdicts_s": need("hazards.verdicts", seconds["hazards.verdicts"]),
        "hazards.fhf_s": need("hazards.fhf", seconds["hazards.fhf"]),
        "hazards.fhf_calls": need("hazards.fhf", calls["hazards.fhf"]),
        "library.anncache.store_s": need("library.anncache.store",
                                         seconds["library.anncache.store"]),
        "library.anncache.load_s": need("library.anncache.load",
                                        seconds["library.anncache.load"]),
        "io.read_blif_s": need("io.read_blif", seconds["io.read_blif"]),
        "api.encode_s": need("api.encode", seconds["api.encode"]),
        "cache.result.lookup_s": need("cache.result.lookup",
                                      seconds["cache.result.lookup"]),
    }
    for library in ANNOTATED_LIBRARIES:
        metrics[f"library.annotate_s.{library}"] = need(
            "library.annotate", seconds[f"library.annotate.{library}"])
    return metrics


#: Libraries whose annotation time is reported per library.
ANNOTATED_LIBRARIES = ("CMOS3", "LSI", "ACTEL", "GDT")

#: The process-wide hazard memo; its hit ratio exists only while it does.
HAZARD_CACHE_SITE = "repro.hazards.cache:HazardCache.expression_analysis"
