"""Self-tests of the benchmark: the tail rule, the gates, cache isolation,
deterministic counters and the output contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from chromastab import generate  # noqa: E402
from chromastab.graph import Graph  # noqa: E402


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# tail percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, rank, pct", [(11, 1, 100 / 11), (20, 10, 50.0),
                                          (400, 390, 97.5), (1000, 990, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, rank, pct):
    values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
    value, got_pct, beyond = stats.tail(values)
    assert value == float(rank)
    assert got_pct == pytest.approx(pct)
    assert beyond == 10
    assert sum(v > value for v in values) == beyond


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_too_few_samples_is_the_maximum(n):
    values = [float(v) for v in range(n)]
    assert stats.tail(values) == (float(n - 1), 100.0, 0)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


# ---------------------------------------------------------------------------
# gates: a wrong expectation is a counted failure, never a crash or a pass
# ---------------------------------------------------------------------------


def fresh_levels(monkeypatch):
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})


def test_enumerate_gate_passes_on_the_true_counts(monkeypatch):
    fresh_levels(monkeypatch)
    level = generate.levels_up_to(5)
    digest = workloads.forms_digest(rows for _key, rows in level)
    fresh_levels(monkeypatch)
    checks = workloads.Checks()
    res = workloads.run_enumerate(checks, order=5, digest=digest)
    assert checks.failures == []
    assert checks.attempted == 6
    assert res["items"] == 34


def test_enumerate_gate_counts_a_wrong_class_count(monkeypatch):
    fresh_levels(monkeypatch)
    monkeypatch.setitem(generate.KNOWN_CLASS_COUNTS, 4, 12)
    checks = workloads.Checks()
    workloads.run_enumerate(checks, order=5, digest="0" * 64)
    assert checks.attempted == 6
    assert len(checks.failures) == 2  # order 4 and the digest
    assert "order 4" in checks.failures[0]


def small_search(tmp_path, **expect):
    spec = generate.GenSpec(6, max_degree=4, predicate="family-members")
    meta = generate.enumerate_catalog(spec).meta
    truth = dict(
        args=("search", "--n", "6", "--max-degree", "4", "--predicate", "family-members"),
        funnel=tuple(meta["funnel"].items()) + (("entries", meta["entry_count"]),),
        lines=meta["entry_count"],
        sha256="e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # empty
    )
    truth.update(expect)
    checks = workloads.Checks()
    workloads.run_search(checks, str(tmp_path), **truth)
    assert os.listdir(tmp_path) == []  # the catalog and its sidecar are removed
    return checks


def test_search_gate_passes_on_the_true_catalog(tmp_path):
    checks = small_search(tmp_path)
    assert checks.failures == []
    assert checks.attempted == 9


def test_search_gate_counts_a_wrong_catalog_digest(tmp_path):
    checks = small_search(tmp_path, sha256="9" * 64)
    assert len(checks.failures) == 1
    assert "sha256" in checks.failures[0]


def test_search_gate_counts_a_wrong_funnel_and_a_failed_command(tmp_path):
    checks = small_search(tmp_path, args=("search", "--n", "99"))
    assert "exit code 2" in checks.failures[0]
    assert len(checks.failures) == 1 + 6 + 1  # exit code, funnel lines, unreadable catalog


def test_invariants_gate_counts_a_crash_and_a_wrong_digest():
    graphs = workloads.corpus(7, size=4) + [Graph.build(0, [])]  # analyze rejects the null graph
    checks = workloads.Checks()
    res = workloads.run_invariants(checks, graphs, digest="0" * 64)
    assert checks.attempted == 6
    assert len(checks.failures) == 2
    assert checks.failures[0].startswith("graph 4")
    assert len(res["parts_ms"]) == 5


def test_corpus_is_a_function_of_the_seed():
    assert workloads.corpus(3, size=20) == workloads.corpus(3, size=20)
    assert workloads.corpus(3, size=20) != workloads.corpus(4, size=20)


def test_error_rate_reaches_the_result(monkeypatch, capsys, tmp_path):
    def failing_rep(self, workload, trace, setup_only=False):
        if setup_only:
            return {"setup_s": 0.1, "slowdown": 1.0}
        res = {"attempted": 3, "failed": 1, "failures": ["injected"], "setup_s": 0.1,
               "wall_s": 0.5, "cpu_s": 0.5, "items": 10, "rss_mb": 30.0, "slowdown": 1.0,
               "parts_ms": [], "probes_s": [], "blocks": False, "env": {}}
        self.attempted += res["attempted"]
        self.failures += res["failures"]
        self.reps.append(res)
        return res

    monkeypatch.setattr(run.Run, "rep", failing_rep)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.main(["--workload", "enumerate7", "--seed", "1", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "error_rate 0.333" in out


# ---------------------------------------------------------------------------
# repetitions: fresh interpreters, deterministic counters, output contract
# ---------------------------------------------------------------------------


def test_caches_carry_within_one_interpreter(monkeypatch):
    """Why every repetition runs in a fresh interpreter: in one process the
    second enumeration is served from the level cache."""
    fresh_levels(monkeypatch)
    from tracing import Tracer

    candidates = []
    for _ in range(2):
        tracer = Tracer()
        workloads.instrument(tracer)
        try:
            with tracer.span("workload"):
                generate.levels_up_to(5)
        finally:
            tracer.unpatch()
        candidates.append(tracer.children_of("generate.children_of").get("iso.canon_data", 0))
    assert candidates[0] > 0
    assert candidates[1] == 0


def rep(workload, trace, tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload, "--seed", "0",
           "--trace", str(trace), "--spawned", "0", "--out", str(tmp_path)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return last_json(done.stdout)


def test_traced_repetitions_repeat_their_counts(tmp_path):
    first = rep("enumerate7", 1, tmp_path)
    second = rep("enumerate7", 1, tmp_path)
    counts = [name for name in first["layers"] if run.layer_unit(name) == "count"]
    assert "generate.candidates" in counts and "kernels.canon_raw.calls" in counts
    assert first["layers"]["generate.candidates"] > 0
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["failed"] == second["failed"] == 0
    assert first["attempted"] == second["attempted"] > 8  # the self-time check ran too


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "enumerate7",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enumerate7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
