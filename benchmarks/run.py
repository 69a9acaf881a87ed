"""qpaste benchmark: every workload behind one command.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  qpaste is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` the run
sets up, warms up, then times tasks for S seconds, setting up again
every few seconds of them, and reports the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds untraced and the same number traced, and reports
the per-layer metrics; fixed work makes every count repeat exactly for a
given seed.  Both print one line per metric, then a JSON summary as the
last line of standard output.  Metric names and units come from
BENCHMARK.json.  See NOTES.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A timed run sets up again after every SETUP_EVERY seconds of tasks, so
# its set-up samples span the whole run instead of one moment of it.
SETUP_EVERY = 2.0
# Rounds per pass in a traced run, sized to take a few seconds untraced.
TRACE_ROUNDS = {"cli-family": 1, "verify-sweep": 4, "distance-search": 3, "crosscheck-small": 10}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_qpaste():
    """Import qpaste from this checkout's src/; time it and note numpy."""
    if not (SRC / "qpaste" / "__init__.py").is_file():
        raise SystemExit(f"error: no qpaste sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qpaste

    import_ms = (time.perf_counter() - start) * 1000.0
    if Path(qpaste.__file__).resolve().parent != SRC / "qpaste":
        raise SystemExit(f"error: imported qpaste from {qpaste.__file__}, not from {SRC}")
    return import_ms, "numpy" in sys.modules


def measure(workload, tag: str, *, seconds=None, rounds=None, tracer=None, setup=None):
    """Run tasks in seeded rounds; return (task id, kind, seconds, problem) records.

    Stops at the first task boundary after ``seconds`` of tasks, or after
    ``rounds`` whole rounds.  Only ``workload.run`` is timed.  With
    ``setup``, calls it at a task boundary after every ``SETUP_EVERY``
    seconds; the time it takes is not counted against ``seconds``.
    """
    rng = random.Random(tag)
    deadline = None if seconds is None else time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY
    records = []
    r = 0
    while rounds is None or r < rounds:
        for i, (kind, payload, expect) in enumerate(workload.round(rng)):
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                return records
            if setup is not None and now >= next_setup:
                setup()
                after = time.perf_counter()
                next_setup = after + SETUP_EVERY
                if deadline is not None:
                    deadline += after - now
            task_id = f"r{r}.{i}:{kind}"
            if tracer is not None:
                tracer.task = task_id
            start = time.perf_counter()
            try:
                result = workload.run(payload)
            except Exception as exc:  # a raised task is a failed task, not a crash
                elapsed = time.perf_counter() - start
                records.append((task_id, kind, elapsed, f"raised {type(exc).__name__}: {exc}"))
                continue
            elapsed = time.perf_counter() - start
            try:
                problem = workload.check(payload, expect, result)
            except Exception as exc:
                problem = f"output could not be checked: {type(exc).__name__}: {exc}"
            records.append((task_id, kind, elapsed, problem))
        r += 1
    return records


def best_round(records) -> list[float]:
    """Latencies of one round of tasks, each kind at the lowest latency it showed.

    On a shared 2-core VM the CPU drifts between speed regimes that last
    seconds, and the same task's latency moves by up to 1.7x between them;
    a kind's minimum over the whole run is what stays put from run to run.
    A kind is a base code and variant, or a command; its copies per round
    are those of round 0.
    """
    best: dict[str, float] = {}
    for _, kind, elapsed, _ in records:
        best[kind] = min(elapsed, best.get(kind, elapsed))
    return sorted(best[kind] for task_id, kind, _, _ in records if task_id.startswith("r0."))


class Setup:
    """A workload's set-up, callable again and again; keeps each duration."""

    def __init__(self, once):
        self.once = once
        self.durations: list[float] = []

    def __call__(self):
        start = time.perf_counter()
        result = self.once()
        self.durations.append(time.perf_counter() - start)
        return result


def warm_setup(name: str, seed: int, workdir: Path, env: dict, trace_out: Path | None) -> Setup:
    """Set-up that builds the inputs in a fresh interpreter and returns them.

    Every set-up must write the same inputs as the first.
    """
    out = workdir / "inputs.json"
    cmd = [sys.executable, str(HERE / "inputs.py"), name, str(seed), str(out)]
    if trace_out:
        cmd.append(str(trace_out))
    first = []

    def once():
        # No timeout: Popen.wait with one polls in steps of up to 50 ms,
        # which would round set-up times to those steps.
        subprocess.run(cmd, env=env, check=True)
        text = out.read_text()
        if first and text != first[0]:
            raise SystemExit("error: input generation is not deterministic for this seed")
        first.append(text)
        return json.loads(text)

    return Setup(once)


def cli_setup(workload) -> Setup:
    """Set-up that writes cli-family's paste inputs; its commands add no peak RSS."""

    def once():
        peak = workload.peak_rss_kb
        workload.setup()
        workload.peak_rss_kb = peak

    return Setup(once)


def summarize(records, known_defect: str):
    failed = [(tid, p) for tid, _, _, p in records if p is not None and p != known_defect]
    known = [tid for tid, _, _, p in records if p == known_defect]
    return failed, known


def add_spans(spans: list, new: list, task: str | None = None) -> None:
    """Append another process's spans, keeping parent links and task ids right."""
    offset = len(spans)
    for name, start, end, parent, own_task in new:
        spans.append([name, start, end, None if parent is None else parent + offset, task or own_task])


def rate(latencies) -> float:
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def report(spec_metrics, values: dict, notes: dict, records, failed, known, log_path: Path) -> None:
    for m in spec_metrics:
        note = notes.get(m["name"], "")
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}{'  ' + note if note else ''}")
    attempted = len(records)
    print(f"failed_share {len(failed) / attempted if attempted else 0:.6g}  ({len(failed)} of {attempted} tasks)")
    for tid, problem in failed:
        print(f"  FAILED {tid}: {problem}")
    if known:
        print(
            f"known_defect_share {len(known) / attempted:.6g}  ({len(known)} tasks where "
            "verify_distance3 does not excuse a pair whose product lies in -S; see benchmarks/NOTES.md)"
        )
        print(f"  known-defect tasks: {' '.join(known[:20])}{' ...' if len(known) > 20 else ''}")
    print(f"task log: {log_path.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))


def timed_run(name: str, seed: int, seconds: float, workload, setup: Setup, spec: dict) -> None:
    """Time tasks for ``seconds`` and report the end-to-end metrics."""
    from workloads import KNOWN_DEFECT

    records = measure(workload, f"{name}/{seed}/timed", seconds=seconds, setup=setup)
    setup_s = setup.durations
    latencies = best_round(records)
    if name == "cli-family":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "tasks_per_s": rate(latencies),
        "task_p50_ms": statistics.median(latencies) * 1000.0,
        "task_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = f"(n={len(records)} tasks, {len(latencies)} per round at best latency)"
    notes = {
        "tasks_per_s": samples,
        "task_p50_ms": samples,
        "task_p90_ms": samples,
        "setup_s": f"(median of {len(setup_s)} set-ups spread over the run)",
        "peak_rss_mb": "(largest command)" if name == "cli-family" else "(benchmark process)",
    }
    log_path = WORK / f"tasks-{name}-seed{seed}.json"
    log_path.write_text(json.dumps(records))
    failed, known = summarize(records, KNOWN_DEFECT)
    report(spec["end_to_end"], values, notes, records, failed, known, log_path)


def traced_run(name: str, seed: int, workload, setup_trace: Path | None, startup: tuple, spec: dict) -> None:
    """Run fixed rounds untraced, then traced, and report the per-layer metrics."""
    from tracer import Tracer, layer_metrics, merge
    from workloads import KNOWN_DEFECT

    import_ms, numpy_imported = startup
    rounds = TRACE_ROUNDS[name]
    untraced = measure(workload, f"{name}/{seed}/untraced", rounds=rounds)
    summaries, spans = [], []
    if setup_trace is not None:
        setup = json.loads(setup_trace.read_text())
        summaries.append(setup)
        add_spans(spans, setup["span_list"])
    if name == "cli-family":
        workload.traced = True
        traced = measure(workload, f"{name}/{seed}/traced", rounds=rounds)
        # A command that crashed before writing its trace counts as no work.
        empty = {"stats": {}, "codes": {}, "candidates": 0, "spans": 0, "span_list": [],
                 "import_ms": 0.0, "numpy_imported": False}
        children = [json.loads(p.read_text()) if p.exists() else empty for p in workload.trace_files]
        for (task_id, _, _, _), child in zip(traced, children):
            summaries.append(child)
            add_spans(spans, child["span_list"], task_id)
        no_kl = [c for (task_id, _, _, _), c in zip(traced, children) if "--kl" not in task_id]
        import_ms = statistics.median(c["import_ms"] for c in children)
        numpy_imported = sum(c["numpy_imported"] for c in no_kl) / len(no_kl)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, f"{name}/{seed}/traced", rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        add_spans(spans, tracer.spans)
    values = layer_metrics(merge(summaries))
    values["startup.import_qpaste_ms"] = import_ms
    values["startup.numpy_imported"] = float(numpy_imported)
    values["trace.overhead_ratio"] = rate(best_round(traced)) / rate(best_round(untraced))
    values["verification.verify_distance3.known_defect_tasks"] = len(summarize(traced, KNOWN_DEFECT)[1])
    values = {m["name"]: values.get(m["name"], 0) for m in spec["per_layer"]}
    records = untraced + traced
    log_path = WORK / f"trace-{name}-seed{seed}.json"
    log_path.write_text(json.dumps({"metrics": values, "tasks": records, "spans": spans}))
    failed, known = summarize(records, KNOWN_DEFECT)
    report(spec["per_layer"], values, {}, records, failed, known, log_path)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    startup = import_qpaste()

    from cli_family import CliFamily
    from workloads import WORKLOADS

    name, seed = args.workload, args.seed
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        setup_trace = workdir / "setup-trace.json" if args.trace and name != "cli-family" else None
        if name == "cli-family":
            workload = CliFamily(workdir, env)
            setup = cli_setup(workload)
            setup()
        else:
            setup = warm_setup(name, seed, workdir, env, setup_trace)
            workload = WORKLOADS[name](setup())
            measure(workload, f"{name}/{seed}/warmup", rounds=1)
        if args.trace:
            traced_run(name, seed, workload, setup_trace, startup, spec)
        else:
            timed_run(name, seed, args.seconds, workload, setup, spec)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
