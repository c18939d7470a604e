#!/usr/bin/env python3
"""The chromastab benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src on whichever kernel backend `kernels.active()` resolves to.

Workloads (why each was chosen is in BENCHMARK.json):
  enumerate7  generate.levels_up_to(7) from cold, unbounded degree, one job
  search8     chromastab search --n 8 --max-degree 4
              --predicate family-members --jobs 1
  invariants  a seeded corpus, one graph at a time through chromatic.analyze
              and chromatic.min_color_class_size

Repetitions run back to back, each in a fresh interpreter, until another
would end more than halfway past S seconds (at least one; an invariants
repetition of 1,200 graphs is most of a 25 s window on its own).
End-to-end times are medians over repetitions,
in reference seconds: times are divided by the host slowdown that probes
measured inside and around the timed work (calibrate.py).  The raw medians
and the slowdowns are printed on the info line.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions, then times the kernel corpora; it prints the per-layer
metrics.  Every output is checked; a failed check counts in "failed" and
never stops the run.  The last line of stdout is the JSON result; the full
record, with the environment and every repetition, goes to
perfbench/out/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("enumerate7", "search8", "invariants")  # each runs with one job
RUN_LIMIT_S = 170.0  # a run never starts a repetition it may not finish by then

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.reps = []

    def elapsed(self):
        return time.monotonic() - self.started

    def rep(self, workload, trace, setup_only=False):
        """Run one repetition; None (and one failed operation) if it crashed
        or ran out of time."""
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
               "--seed", str(self.seed), "--trace", str(trace),
               "--out", OUT] + (["--setup-only"] if setup_only else [])
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.attempted += 1
            self.failures.append(f"{workload} repetition timed out")
            return None
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            self.failures.append(f"{workload} repetition exited {proc.returncode}: {err[-500:]}")
            return None
        if setup_only:
            return res
        self.attempted += res["attempted"]
        self.failures += res["failures"]
        if res["failed"] > len(res["failures"]):
            self.failures += ["(more failures not shown)"] * (res["failed"] - len(res["failures"]))
        res["trace"] = trace
        res["workload"] = workload
        self.reps.append(res)
        return res

    def more(self, seconds, last_s):
        """Start another repetition while one of the same length would end
        more inside the measuring window than outside it, and the run limit
        leaves room for it.  A window shorter than one repetition holds one."""
        return (self.elapsed() + 0.5 * last_s < seconds
                and self.elapsed() + 1.5 * last_s < RUN_LIMIT_S)


SETUP_SAMPLES = 15  # set-ups measured per run, extra set-up-only processes if needed


def reference_times(r):
    """(wall_s, cpu_s, parts_ms) of one repetition in reference seconds.

    When the timed work was cut into parts with probes between blocks of
    parts, each part is scaled by the probes around its block and the time
    outside the parts by their median; otherwise the whole call is scaled by
    the probes around it."""
    if r["blocks"]:
        factors = calibrate.block_slowdowns(r["probes_s"])
        parts = [t / factors[i // calibrate.BLOCK] for i, t in enumerate(r["parts_ms"])]
        outside = r["wall_s"] - sum(r["parts_ms"]) / 1000.0
        wall = sum(parts) / 1000.0 + outside / statistics.median(factors)
    else:
        parts = [t / r["slowdown"] for t in r["parts_ms"]]
        wall = r["wall_s"] / r["slowdown"]
    return wall, r["cpu_s"] * wall / r["wall_s"], parts


def end_to_end(run, seconds):
    last_s = None
    while last_s is None or run.more(seconds, last_s):
        t0 = time.monotonic()
        if run.rep(run.workload, 0) is None:
            break
        last_s = time.monotonic() - t0
    reps = run.reps
    if not reps:
        return {}, {}
    setups = [r["setup_s"] / r["slowdown"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        res = run.rep(run.workload, 0, setup_only=True)
        if res is None:
            break
        setups.append(res["setup_s"] / res["slowdown"])
    scaled = [reference_times(r) for r in reps]
    walls = [wall for wall, _cpu, _lat in scaled]
    if run.workload == "invariants":
        # one request is one graph: its latency is the median over repetitions
        samples = [statistics.median(col) for col in zip(*[parts for _wall, _cpu, parts in scaled])]
        unit = "graph"
    else:
        # one request is one whole run of the command
        samples = [1000.0 * w for w in walls]
        unit = "repetition"
    tail, pct, beyond = stats.tail(samples)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": reps[0]["items"] / wall,
        "cpu_s": statistics.median([cpu for _wall, cpu, _lat in scaled]),
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": tail,
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    info = {
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "slowdowns": [round(r["slowdown"], 4) for r in reps],
        "raw_wall_s": statistics.median([r["wall_s"] for r in reps]),
        "raw_cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "latency_request": unit,
        "latency_samples": len(samples),
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
    }
    return metrics, info


def per_layer(run, seconds):
    """Untraced and traced repetitions in turn, then the corpora."""
    untraced, traced = [], []
    last_s = 0.0
    while not traced or run.more(seconds, last_s):
        t0 = time.monotonic()
        plain = run.rep(run.workload, 0)
        spans = run.rep(run.workload, 1) if plain is not None else None
        if plain is None or spans is None:
            break
        untraced.append(plain)
        traced.append(spans)
        last_s = time.monotonic() - t0
    if not traced:
        return {}, {}
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if layer_unit(name) == "count":  # deterministic: must repeat exactly
            run.attempted += 1
            if len(set(values)) != 1:
                run.failures.append(f"count {name} differs between repetitions: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    # reference seconds, so that the overhead is not swamped by the host's
    # drift between repetitions; both sides are scaled by the median of their
    # own probes (traced repetitions are not cut into blocks)
    plain_wall = statistics.median([r["wall_s"] / r["slowdown"] for r in untraced])
    traced_wall = statistics.median([r["wall_s"] / r["slowdown"] for r in traced])
    metrics["tracing.untraced_wall_s"] = plain_wall
    metrics["tracing.untraced_cpu_s"] = statistics.median([r["cpu_s"] / r["slowdown"] for r in untraced])
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.overhead_s"] = traced_wall - plain_wall

    corpus = run.rep("corpora", 0)
    if corpus is not None:
        metrics.update(corpus["layers"])
    info = {"pairs": len(traced),
            "note": "per-layer times are raw seconds, tracing.*_wall_s and _cpu_s "
                    "reference seconds; in every traced repetition the self times "
                    "summed to the traced wall (a checked operation)",
            "self_s_sum_and_traced_wall_s": [
                [r["trace_totals"]["self_s_sum"], r["trace_totals"]["traced_wall_s"]] for r in traced],
            "corpora_timings": corpus["timings"] if corpus else None}
    return metrics, info


def git_sha():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chromastab", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'chromastab')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    run = Run(args.workload, args.seed, args.trace)
    if args.trace:
        metrics, info = per_layer(run, args.seconds)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, info = end_to_end(run, args.seconds)
        units = END_TO_END_UNITS
    if not run.reps:
        run.failures.append("no repetition completed")
        run.attempted = max(run.attempted, 1)

    env = dict(run.reps[0]["env"]) if run.reps else {}
    env.update(git_sha=git_sha(), nproc=os.cpu_count(),
               cpus_usable=len(os.sched_getaffinity(0)), jobs=1)
    failed = len(run.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "info": info, "metrics": metrics,
        "attempted": run.attempted, "failed": failed, "failures": run.failures,
        "reps": [{k: v for k, v in r.items() if k not in ("parts_ms", "timings")}
                 for r in run.reps],
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if k != "corpora_timings"}))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"error_rate {failed / run.attempted} ({failed}/{run.attempted} checks failed)")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
