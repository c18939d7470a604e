"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \
        --spawned T --out DIR [--setup-only]

`--spawned` is the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time covers interpreter start, imports and input
generation.  Host-speed probes (calibrate.py) run around and inside the
timed work; `--setup-only` probes once and stops after set-up.
The last line of stdout is one JSON object with the timings, the checks
and, when traced, the per-layer numbers.  Spans go to a gzip
file under DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import chromastab  # noqa: E402
from chromastab import kernels  # noqa: E402

import calibrate  # noqa: E402
import corpora  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def layer_metrics(tracer, checks):
    """Per-layer numbers of one traced repetition, named <module>.<function>.<stat>."""
    st = tracer.stats()

    def get(name, stat):
        return st.get(name, {}).get(stat, 0)

    m = {}
    for name, stats in (
        ("kernels.canon_raw", ("calls", "s", "max_ms")),
        ("iso.canon_data", ("calls", "s", "self_s")),
        ("graph6.encode_rows", ("calls", "s")),
        ("generate.levels_up_to", ("s", "self_s")),
        ("generate.funnel", ("calls", "s")),
        ("generate.enumerate_catalog", ("s",)),
        ("generate.write_catalog", ("s",)),
        ("kernels.chromatic_number", ("calls", "s")),
        ("kernels.stability_values", ("calls", "s")),
        ("kernels.stability_witnesses", ("calls", "s")),
        ("kernels.min_color_class_size", ("calls", "s", "max_ms")),
        ("kernels.deletion_colorable", ("calls", "s")),
        ("chromatic.analyze", ("calls", "s", "self_s")),
        ("chromatic.bipartizing_pair_vertices", ("s",)),
        ("iso.is_planar", ("calls", "s")),
        ("graph.Graph.connectivity", ("calls", "s")),
    ):
        for stat in stats:
            m[f"{name}.{stat}"] = get(name, stat)

    by_order = tracer.time_by_request("generate.children_of")
    m["generate.top_level.s"] = by_order[max(by_order)] if by_order else 0.0
    candidates = tracer.children_of("generate.children_of").get("iso.canon_data", 0)
    classes = tracer.counts["generate.children_of"]
    m["generate.candidates"] = candidates
    m["generate.classes"] = classes
    m["generate.accept_ratio"] = classes / candidates if candidates else 0.0

    roots = [s for s in tracer.spans if s[3] < 0]
    checks.expect(all(s[0] == "workload" for s in roots),
                  "a traced call ran outside the timed workload")
    traced_wall = sum(s[2] - s[1] for s in roots)
    self_sum = sum(entry["self_s"] for entry in st.values())
    m["tracing.spans"] = len(tracer.spans)
    checks.expect(abs(self_sum - traced_wall) <= 1e-6 * max(1.0, traced_wall),
                  f"self times sum to {self_sum}, traced wall is {traced_wall}")
    return m, {"self_s_sum": self_sum, "traced_wall_s": traced_wall}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    checks = workloads.Checks()
    graphs = None
    if args.workload == "invariants":
        graphs = workloads.corpus(args.seed)
    setup_s = time.monotonic() - args.spawned

    if args.setup_only:
        samples = calibrate.probes()
        print(json.dumps({"setup_s": setup_s, "slowdown": calibrate.slowdown(samples)}))
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.instrument(tracer)
    layers = {}
    if args.workload == "enumerate7":
        res = workloads.run_enumerate(checks, tracer, blocks=not args.trace)
    elif args.workload == "search8":
        res = workloads.run_search(checks, args.out, tracer, blocks=not args.trace)
    elif args.workload == "invariants":
        digest = workloads.INVARIANTS_DIGEST if args.seed == workloads.DEFAULT_SEED else None
        res = workloads.run_invariants(checks, graphs, tracer, digest, calibrate.probe)
    elif args.workload == "corpora":
        t0 = time.perf_counter()
        layers, timings = corpora.measure(checks)
        res = {"wall_s": time.perf_counter() - t0, "cpu_s": 0.0, "items": 0,
               "parts_ms": [], "timings": timings, "probes_s": calibrate.probes(),
               "blocks": False}
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if tracer is not None:
        layers, res["trace_totals"] = layer_metrics(tracer, checks)
        tracer.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.json.gz"))

    res.update(
        setup_s=setup_s,
        slowdown=calibrate.slowdown(res["probes_s"]),
        rss_mb=workloads.peak_rss_mb(),
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures[:5],
        layers=layers,
        env={
            "backend": kernels.backend_name(),
            "have_compiled": kernels.have_compiled(),
            "version": chromastab.__version__,
            "python": sys.version.split()[0],
        },
    )
    print(json.dumps(res))


if __name__ == "__main__":
    main()
