"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload map-cmos3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the timed work once untraced and once with the
per-layer probes of ``layers.py`` installed, and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in its
own process.  Human-readable lines (the host, every metric by name with
its unit, any failed check) come first; the last line of standard
output is the JSON result.  The exit code is 0 only if every output
check passed.

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("map-cmos3", "map-actel", "library-init", "serve-mixed")

#: An end-to-end run sets up at least ``SETUPS`` times and until
#: ``SETUP_SECONDS`` have gone into set-up (at most ``SETUPS_MAX`` times);
#: ``setup_s`` is the median, steady even for a set-up of milliseconds.
SETUPS = 5
SETUP_SECONDS = 1.0
SETUPS_MAX = 100


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer ``name -> unit``, from the contract.

    Every workload reports every end-to-end metric.  In the per-layer
    set, a layer the workload does not reach reads 0 and a layer whose
    wrapped functions no longer exist reads null.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


#: Traced call counts that must equal the program's own CoverStats.
CROSS_CHECKS = (
    ("mapping.match.calls", "coverstats.clusters"),
    ("mapping.match.matches", "coverstats.matches"),
    ("hazards.filter_calls", "coverstats.filter_invocations"),
)


def host_record(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "seed": seed}


def make_workload(name: str, seed: int):
    import workloads

    if name == "map-cmos3":
        return workloads.MapWorkload("CMOS3", seed, ROOT)
    if name == "map-actel":
        return workloads.MapWorkload("ACTEL", seed, ROOT)
    if name == "library-init":
        return workloads.LibraryInitWorkload(seed, ROOT)
    return workloads.ServeWorkload(seed, ROOT)


def measure(workload, seconds: float, trace: bool):
    """Set up, run and check.

    Returns ``(setup_spans, passes, tally, layers, peak_rss_mb)``.  The
    peak memory is read before the output checks run, so it is the
    program's high-water mark and not the checker's.
    """
    import workloads
    from layers import LayerTrace, layer_metrics

    tally = workloads.Tally()
    setup_spans: list[tuple[float, float]] = []
    state = None

    def fresh():
        workloads.reset_process_state()
        started = time.perf_counter()
        new_state = workload.setup()
        setup_spans.append((started, time.perf_counter()))
        return new_state

    def finish() -> None:
        nonlocal state
        workload.teardown(state)
        state = None

    passes = []
    layers = None
    try:
        if trace:
            state = fresh()
            passes.append(workload.run(state))
            finish()
            with LayerTrace() as probes:
                state = fresh()
                passes.append(workload.run(state))
            finish()
            layers = layer_metrics(probes)
        else:
            while True:
                state = fresh()
                spent = sum(end - start for start, end in setup_spans)
                if len(setup_spans) >= SETUPS and (
                        spent >= SETUP_SECONDS or len(setup_spans) >= SETUPS_MAX):
                    break
                workload.teardown(state)
                state = None
            deadline = time.perf_counter() + seconds
            while True:
                passes.append(workload.run(state))
                finish()
                # Start another repeat only if it fits in the run.
                setup = statistics.median(end - start for start, end in setup_spans)
                if time.perf_counter() + passes[-1].wall + setup > deadline:
                    break
                state = fresh()
    finally:
        if state is not None:
            workload.teardown(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Output checks run after the timed passes, outside the run's time.
    for passed in passes:
        workload.check(passed, tally)
    for index, passed in enumerate(passes[1:], start=1):
        tally.check(passed.work == passes[0].work,
                    f"repeat {index} did other work than repeat 0: "
                    f"{passed.work} != {passes[0].work}")
    return setup_spans, passes, tally, layers, peak_rss_mb


def end_to_end(workload, setup_spans, passes, peak_rss_mb, seconds) -> dict:
    """The end-to-end metrics; ``seconds`` rescales a measured interval
    to the reference host speed (see ``hostspeed.py``)."""
    operations = sum(1 for p in passes for op in p.ops if op.kind in workload.OP_KINDS)
    wall = sum(seconds(p.start, p.end) for p in passes)
    return {
        "setup_s": statistics.median(seconds(*span) for span in setup_spans),
        "ops_per_s": operations / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes, layers, tally, units, seconds) -> dict:
    untraced, traced = (seconds(p.start, p.end) for p in passes)
    values = dict.fromkeys(units, 0.0)
    values.update(layers)
    values.update({k: v for k, v in passes[1].layer.items() if k in units})
    values["obs.trace_overhead_frac"] = (traced - untraced) / untraced
    for traced_name, program_name in CROSS_CHECKS:
        expected = passes[1].layer.get(program_name)
        if expected is None or values.get(traced_name) is None:
            continue
        tally.check(values[traced_name] == expected,
                    f"traced {traced_name}={values[traced_name]} but the program "
                    f"counted {program_name.split('.', 1)[1]}={expected}: the trace "
                    "missed calls")
    return values


def run_one(args) -> int:
    from hostspeed import HostSpeed

    workload = make_workload(args.workload, args.seed)
    with HostSpeed() as speed:
        setup_spans, passes, tally, layers, peak_rss_mb = measure(
            workload, args.seconds, bool(args.trace))
    host = host_record(args.seed)
    host["probe_ms"] = 1000.0 * speed.probe_seconds(passes[0].start, passes[-1].end)
    print("host " + json.dumps(host))
    end_to_end_units, per_layer_units = metric_units()
    if args.trace:
        units = per_layer_units
        values = per_layer(passes, layers, tally, units, speed.seconds)
    else:
        units = end_to_end_units
        values = end_to_end(workload, setup_spans, passes, peak_rss_mb, speed.seconds)
        latencies = [speed.seconds(op.start, op.end) for p in passes for op in p.ops
                     if op.kind in workload.OP_KINDS]
        print(f"{args.workload} op_p50_ms {1000 * statistics.median(latencies):.6g} ms "
              f"({len(latencies)} operations)")
        for name, value, unit in workload.report(passes, speed.seconds):
            print(f"{args.workload} {name} {value:.6g} {unit}")
    for name, unit in units.items():
        value = values[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} {shown} {unit}")
    failed = len(tally.failures)
    print(f"{args.workload} failed_frac {failed / max(tally.attempted, 1):.6g} ratio "
          f"({failed} of {tally.attempted} checks, {len(passes)} repeat(s))")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not tally.failures else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Runs are hermetic: no cache location or size comes from outside.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # One core for the whole run, so the host-speed probe samples the core
    # the work runs on; the interpreter lock serialises the work anyway.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - the run fails loudly, without a result
        traceback.print_exc()
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
