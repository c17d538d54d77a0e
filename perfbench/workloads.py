"""The four benchmark workloads.

Each workload has a ``setup`` (timed by the caller as ``setup_s``), a
``run`` that performs one repeat of the timed work and returns a
:class:`Pass`, a ``teardown`` and a ``check`` that verifies the pass's
outputs with checks that share no code with the mapper's matching and
covering: the ``repro.conformance`` certifier, BDD equivalence, the
paper's Table-1 census and digest identity of cache replays.

The program only ever sees inputs generated here from the seed: design
order, library order and the serve-mixed request sequence.
"""

from __future__ import annotations

import io
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import facade
from repro.api.schema import MapRequest
from repro.boolean.bdd import BddManager
from repro.burstmode import benchmarks
from repro.conformance.certifier import certify_mapping
from repro.library import anncache, standard
from repro.mapping import mapper

_clock = time.perf_counter

#: Designs of the map-* workloads (0.8k-2.9k clusters each).
MAP_DESIGNS = ("oscsi-ctrl", "abcs", "pe-send-ifc", "dme-fast")

#: The paper's Table 1: hazardous cells / cells per library.
TABLE1_CENSUS = {"LSI": (12, 86), "CMOS3": (1, 30), "GDT": (0, 72), "ACTEL": (24, 84)}

#: The small-to-mid catalog designs the serve-mixed clients send.
SERVE_DESIGNS = ("chu-ad-opt", "dme-fast-opt", "dme-fast", "dme-opt", "dme",
                 "oscsi-ctrl", "pe-send-ifc")
#: The libraries of the map-* workloads: the hazard filter idle and busy.
SERVE_LIBRARIES = ("CMOS3", "ACTEL")
SERVE_MODES = ("async", "sync")
#: One client and one worker per core of the 2-core reference host.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2


@dataclass
class Op:
    """One timed operation: a map, a certification, an annotation, a request.

    ``start`` and ``end`` are ``time.perf_counter`` readings, so the
    caller can rescale the interval by the host speed measured in it.
    """

    kind: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    """One repeat of a workload's timed work, from ``start`` to ``end``."""

    start: float
    end: float
    ops: list[Op] = field(default_factory=list)
    #: Work counts that must repeat exactly from one repeat to the next.
    work: dict = field(default_factory=dict)
    #: Per-layer figures the workload reads off the program's own outputs.
    layer: dict = field(default_factory=dict)
    #: Outputs kept for :meth:`check`.
    outputs: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def phase(self, kind: str, seconds) -> float:
        """Summed duration of the ``kind`` operations; ``seconds`` maps a
        ``(start, end)`` interval to its duration."""
        return sum(seconds(op.start, op.end) for op in self.ops if op.kind == kind)


class Tally:
    """Attempted and failed checks; every failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_dir(root: Path) -> Path:
    """A fresh directory inside the checkout for per-run cache stores."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def reset_process_state() -> None:
    """Forget every process-wide memo so the next setup starts cold.

    A second ``load_library`` in one process would otherwise return the
    already-annotated object, and the hazard and result caches would
    serve work done by an earlier repeat.
    """
    from repro.cache import resultcache

    clear_hazard_cache()
    facade.clear_library_cache()
    resultcache.MEMORY.clear()
    for factory in standard.ALL_LIBRARIES.values():
        factory.cache_clear()
    benchmarks.synthesize_benchmark.cache_clear()


def clear_hazard_cache() -> None:
    """What a fresh CLI process would see: no hazard memo entries."""
    from repro.hazards import cache as hazard_cache

    clear = getattr(hazard_cache, "clear_global_cache", None)
    if clear is not None:
        clear()


def equivalent(source, mapped) -> bool:
    """BDD equivalence of every output, computed outside the mapper."""
    if list(source.outputs) != list(mapped.outputs):
        return False
    for output in source.outputs:
        src = source.collapse(output)
        dst = mapped.collapse(output)
        support = tuple(sorted(src.support() | dst.support()))
        if not support:
            if src.evaluate({}) != dst.evaluate({}):
                return False
            continue
        manager = BddManager(len(support))
        if manager.from_expr(src, support) != manager.from_expr(dst, support):
            return False
    return True


def _census(library) -> tuple[int, int]:
    return sum(1 for cell in library.cells if cell.is_hazardous), len(library.cells)


# ----------------------------------------------------------------------
# map-cmos3 / map-actel
# ----------------------------------------------------------------------


class MapWorkload:
    """Async-map, sync-map and certify four designs onto one library."""

    OP_KINDS = ("design",)

    def __init__(self, library: str, seed: int, root: Path) -> None:
        self.library = library
        self.order = list(MAP_DESIGNS)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        networks = {name: benchmarks.synthesize_benchmark(name).netlist(name)
                    for name in self.order}
        library = standard.load_library(self.library)
        report = library.annotate_hazards(cache_dir=anncache.DISABLED)
        return {"networks": networks, "library": library, "source": report.source}

    def teardown(self, state) -> None:
        pass

    def run(self, state) -> Pass:
        networks, library = state["networks"], state["library"]
        options = mapper.MappingOptions(annotation_cache_dir=anncache.DISABLED)
        ops: list[Op] = []
        started = _clock()
        records = []
        for name in self.order:
            # One design through the flow, as a user would run it: the
            # async map and its certificate, then the sync map.
            clear_hazard_cache()
            t0 = _clock()
            mapped = mapper.async_tmap(networks[name], library, options)
            t1 = _clock()
            cert = certify_mapping(networks[name], mapped.mapped, library)
            t2 = _clock()
            synced = mapper.tmap(networks[name], library, options)
            t3 = _clock()
            ops += [Op("map", t0, t1), Op("certify", t1, t2), Op("sync_map", t2, t3),
                    Op("design", t0, t3)]
            # Keep only what the checks and counts need, so the results of
            # one design do not stay resident through the next.
            records.append({
                "name": name, "area": mapped.area, "delay": mapped.delay,
                "async": mapped.stats, "sync": synced.stats, "certificate": cert,
                "network": networks[name], "sync_netlist": synced.mapped,
            })
            del mapped, synced
        ended = _clock()

        work = {"annotation": state["source"]}
        for mode in ("async", "sync"):
            for counter in ("clusters", "matches", "filter_invocations"):
                work[f"{mode}.{counter}"] = sum(getattr(r[mode], counter) for r in records)
        area = sum(r["area"] for r in records)
        delay = sum(r["delay"] for r in records)
        work["area"], work["delay"] = area, round(delay, 6)
        layer = {
            "conformance.transitions_checked": sum(r["certificate"].transitions_checked
                                                   for r in records),
            "conformance.replays": sum(r["certificate"].replays for r in records),
            "quality.area": area,
            "quality.delay": delay,
            # The program's own CoverStats, against which the traced
            # call counts are checked.
            "coverstats.clusters": work["async.clusters"] + work["sync.clusters"],
            "coverstats.matches": work["async.matches"] + work["sync.matches"],
            "coverstats.filter_invocations": (work["async.filter_invocations"]
                                              + work["sync.filter_invocations"]),
        }
        return Pass(started, ended, ops=ops, work=work, layer=layer, outputs=records)

    def check(self, passed: Pass, tally: Tally) -> None:
        tally.check(passed.work["annotation"] == "cold",
                    f"{self.library} annotation was {passed.work['annotation']!r}, not cold")
        for record in passed.outputs:
            name, cert = record["name"], record["certificate"]
            tally.check(cert.certified,
                        f"{name}/{self.library} async output not certified: "
                        f"{cert.violations[:2]}")
            tally.check(equivalent(record["network"], record["sync_netlist"]),
                        f"{name}/{self.library} sync output not equivalent")

    @staticmethod
    def report(passes: list[Pass], seconds) -> list[tuple[str, float, str]]:
        def med(kind):
            return statistics.median(p.phase(kind, seconds) for p in passes)

        last = passes[-1].work
        return [("map_s", med("map"), "s"), ("sync_map_s", med("sync_map"), "s"),
                ("certify_s", med("certify"), "s"), ("area", last["area"], "area"),
                ("delay", last["delay"], "delay")]


# ----------------------------------------------------------------------
# library-init
# ----------------------------------------------------------------------


class LibraryInitWorkload:
    """Cold hazard annotation of the four libraries, then disk replay."""

    LIBRARIES = ("CMOS3", "LSI", "ACTEL", "GDT")
    #: A user waits for the cold pass; the store and replay are reported
    #: by name but are not operations of their own.
    OP_KINDS = ("annotate_cold",)

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.order = list(self.LIBRARIES)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        libraries = {name: standard.ALL_LIBRARIES[name]() for name in self.order}
        return {"libraries": libraries, "store": run_dir(self.root)}

    def teardown(self, state) -> None:
        shutil.rmtree(state["store"], ignore_errors=True)

    def run(self, state) -> Pass:
        libraries, store = state["libraries"], state["store"]
        ops: list[Op] = []
        cold, warm = {}, {}
        started = _clock()
        for name in self.order:
            t0 = _clock()
            report = libraries[name].annotate_hazards(cache_dir=anncache.DISABLED)
            ops.append(Op("annotate_cold", t0, _clock()))
            cold[name] = (report.source, _census(libraries[name]))
        for name in self.order:
            t0 = _clock()
            anncache.store_annotations(libraries[name], True, 0.0, store)
            ops.append(Op("annotate_store", t0, _clock()))
        # A later process: fresh library objects replayed from the store.
        fresh = {name: standard.ALL_LIBRARIES[name].__wrapped__() for name in self.order}
        for name in self.order:
            t0 = _clock()
            report = fresh[name].annotate_hazards(cache_dir=store)
            ops.append(Op("annotate_warm", t0, _clock()))
            warm[name] = (report.source, _census(fresh[name]))
        ended = _clock()
        work = {f"cold.{name}": cold[name] for name in self.order}
        work.update({f"warm.{name}": warm[name] for name in self.order})
        return Pass(started, ended, ops=ops, work=work)

    def check(self, passed: Pass, tally: Tally) -> None:
        for name in self.order:
            for phase, source in (("cold", "cold"), ("warm", "disk")):
                got_source, census = passed.work[f"{phase}.{name}"]
                tally.check(got_source == source,
                            f"{name} {phase} annotation came from {got_source!r}")
                tally.check(census == TABLE1_CENSUS[name],
                            f"{name} {phase} census {census} != Table 1 "
                            f"{TABLE1_CENSUS[name]}")

    @staticmethod
    def report(passes: list[Pass], seconds) -> list[tuple[str, float, str]]:
        return [(f"{kind}_s", statistics.median(p.phase(kind, seconds) for p in passes), "s")
                for kind in ("annotate_cold", "annotate_warm", "annotate_store")]


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


@dataclass
class _Request:
    payload: dict
    design: str
    library: str
    mode: str


def serve_sequence(seed: int, blifs: dict[str, str]) -> list[_Request]:
    """The seeded request sequence of one serve-mixed pass.

    Every design is sent once per library and mode, at the default
    ``max_depth``: the grid of the paper's async-versus-sync tables.  No
    request mix has been recorded from real traffic, so the timed loop
    assumes none; the seed picks only the order.
    """
    grid = [(design, library, mode) for design in SERVE_DESIGNS
            for library in SERVE_LIBRARIES for mode in SERVE_MODES]
    random.Random(seed).shuffle(grid)
    sequence = []
    for design, library, mode in grid:
        request = MapRequest(library=library, network={"blif": blifs[design]},
                             mode=mode, result_cache=True)
        sequence.append(_Request(request.to_payload(), design, library, mode))
    return sequence


class ServeWorkload:
    """A closed loop of two clients against an in-process daemon."""

    OP_KINDS = ("request",)

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        #: Output verdict and certificate counts by digest; every pass
        #: serves the same digests, so each is checked once.
        self.verified: dict[str, tuple[bool, dict]] = {}

    def setup(self):
        from repro.service import MappingService, ServiceConfig
        from repro.service.client import ServiceClient

        blifs = {name: facade.netlist_blif(benchmarks.synthesize_benchmark(name)
                                           .netlist(name))
                 for name in SERVE_DESIGNS}
        sequence = serve_sequence(self.seed, blifs)
        store = run_dir(self.root)
        service = MappingService(ServiceConfig(
            port=0, backend="threads", workers=SERVE_WORKERS, queue_limit=8,
            cache_dir=store, preload=SERVE_LIBRARIES))
        server = service.start()
        thread = threading.Thread(target=server.serve_forever, name="perfbench-serve",
                                  daemon=True)
        thread.start()
        return {"sequence": sequence, "store": store, "service": service,
                "server": server, "thread": thread,
                "client": ServiceClient(service.url, timeout=150.0)}

    def teardown(self, state) -> None:
        state["service"].shutdown()
        state["server"].server_close()
        state["thread"].join(timeout=30)
        shutil.rmtree(state["store"], ignore_errors=True)

    def run(self, state) -> Pass:
        sequence, client = state["sequence"], state["client"]
        replies: list = [None] * len(sequence)
        spans = [(0.0, 0.0)] * len(sequence)
        cursor = iter(range(len(sequence)))
        lock = threading.Lock()

        def send(payload):
            try:
                return client.map(payload)
            except Exception as exc:  # noqa: BLE001 - a failed request, checked later
                return exc

        def client_loop() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                t0 = _clock()
                replies[index] = send(sequence[index].payload)
                spans[index] = (t0, _clock())

        started = _clock()
        clients = [threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
                   for i in range(SERVE_CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        ended = _clock()

        # Every request once more, after the timed loop: each must now be
        # a result-cache hit with the first response's digest.
        replays = [send(request.payload) for request in sequence]
        scrape = client.metrics()["metrics"]

        def counter(name: str) -> int:
            return int(scrape.get(name, {}).get("value", 0))

        served = [(reply, t1 - t0) for reply, (t0, t1) in zip(replies, spans)
                  if reply is not None and not isinstance(reply, Exception)]
        overhead = [(seconds - reply.map_seconds) * 1000.0 for reply, seconds in served]
        hits, misses = counter("cache.result.hits"), counter("cache.result.misses")
        work = {
            "requests": len(sequence),
            "cache_hits": hits,
            "matches": sum(reply.matches for reply, _ in served),
            "filter_invocations": sum(reply.filter_invocations for reply, _ in served),
        }
        layer = {
            "service.overhead_ms": statistics.median(overhead) if overhead else 0.0,
            "service.rejected_429": counter("service.rejected.429"),
            # One miss and one hit per request by construction: this
            # shows the cache serving, not how often real traffic repeats.
            "cache.result.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "coverstats.matches": work["matches"],
            "coverstats.filter_invocations": work["filter_invocations"],
        }
        ops = [Op("request", t0, t1) for t0, t1 in spans]
        return Pass(started, ended, ops=ops, work=work, layer=layer,
                    outputs=list(zip(sequence, replies, replays)))

    def check(self, passed: Pass, tally: Tally) -> None:
        sources: dict[str, object] = {}
        libraries = {name: standard.load_library(name) for name in SERVE_LIBRARIES}
        tally.check(passed.work["cache_hits"] == len(passed.outputs),
                    f"{passed.work['cache_hits']} result-cache hits for "
                    f"{len(passed.outputs)} replays")
        for index, (request, reply, replay) in enumerate(passed.outputs):
            label = f"request {index} {request.design}/{request.library}/{request.mode}"
            if not tally.check(reply is not None and not isinstance(reply, Exception),
                               f"{label} failed: {reply}"):
                continue
            tally.check(reply.fallback is None, f"{label} fell back: {reply.fallback}")
            tally.check(reply.cached is None, f"{label} was served from the cache")
            if tally.check(not isinstance(replay, Exception),
                           f"{label} replay failed: {replay}"):
                tally.check(replay.cached in ("memory", "disk"),
                            f"{label} replay was not served from the cache")
                tally.check(replay.digest == reply.digest,
                            f"{label} replay digest differs from the first response")
            if reply.digest not in self.verified:
                self.verified[reply.digest] = self._verify(request, reply, sources,
                                                           libraries, tally, label)
            for key, value in self.verified[reply.digest][1].items():
                passed.layer[key] = passed.layer.get(key, 0) + value

    @staticmethod
    def _verify(request, reply, sources, libraries, tally, label) -> tuple[bool, dict]:
        """Certify an async output or check a sync one for equivalence."""
        from repro.io import read_blif

        if request.design not in sources:
            sources[request.design] = read_blif(
                io.StringIO(request.payload["network"]["blif"]))
        source = sources[request.design]
        mapped = read_blif(io.StringIO(reply.blif))
        if request.mode == "sync":
            return tally.check(equivalent(source, mapped), f"{label} not equivalent"), {}
        cert = certify_mapping(source, mapped, libraries[request.library])
        counts = {"conformance.transitions_checked": cert.transitions_checked,
                  "conformance.replays": cert.replays}
        return tally.check(cert.certified,
                           f"{label} not certified: {cert.violations[:2]}"), counts

    @staticmethod
    def report(passes: list[Pass], seconds) -> list[tuple[str, float, str]]:
        latencies = [seconds(op.start, op.end) * 1000.0 for p in passes for op in p.ops]
        p95 = statistics.quantiles(latencies, n=20)[18]
        wall = sum(seconds(p.start, p.end) for p in passes)
        return [("req_p50_ms", statistics.median(latencies), "ms"),
                ("req_p95_ms", p95, "ms"),
                ("req_samples", len(latencies), "count"),
                ("req_per_s", len(latencies) / wall, "1/s")]
