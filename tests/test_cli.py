import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from chromastab import cli, families, generate, graph6, iso, verify

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_g9(capsys):
    key = graph6.encode(iso.canonical_graph(families.g9()))
    code, out, _ = run_cli(capsys, "params", key)
    assert code == 0
    report = json.loads(out)
    assert report["vertex_stability"] == 2
    assert report["independent_vertex_stability"] == 3
    assert report["max_degree"] == 4


def test_params_two_isolated_vertices(capsys):
    code, out, _ = run_cli(capsys, "params", "A?")
    assert code == 0
    assert json.loads(out)["chromatic_number"] == 1


def test_params_malformed_input(capsys):
    code, _out, err = run_cli(capsys, "params", "garbage!!")
    assert code == 2
    assert "byte offset" in err


def test_params_from_file(tmp_path, capsys):
    p = tmp_path / "g.g6"
    p.write_text(graph6.encode(families.g9()) + "\n")
    code, out, _ = run_cli(capsys, "params", str(p))
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_family_g9(capsys):
    code, out, _ = run_cli(capsys, "family", "G9")
    assert code == 0
    assert graph6.decode(out.strip()).n == 9


def test_family_hne_with_chords(capsys):
    code, out, _ = run_cli(capsys, "family", "HNE", "--n", "18", "--chords", "7")
    assert code == 0
    g = graph6.decode(out.strip())
    assert g.rows == families.h_n_e(18, 0b111).rows


def test_family_gn_too_small(capsys):
    code, _out, err = run_cli(capsys, "family", "GN", "--n", "8")
    assert code == 2
    assert "n >= 9" in err


def test_family_bip_and_subdiv(capsys):
    host = graph6.encode(__import__("chromastab.graph", fromlist=["cycle_graph"]).cycle_graph(6))
    code, out, _ = run_cli(capsys, "family", "BIP", "--host", host, "--a", "0", "--b", "3")
    assert code == 0
    assert graph6.decode(out.strip()).n == 9
    g9key = graph6.encode(families.g9())
    code, out, _ = run_cli(capsys, "family", "SUBDIV", "--host", g9key, "--plan", "1-6:2")
    assert code == 0
    assert graph6.decode(out.strip()).n == 11


def test_family_without_required_arguments_is_a_usage_error(capsys):
    for family in ("SUBDIV", "BIP", "GN", "HNE"):
        code, out, err = run_cli(capsys, "family", family)
        assert code == 2, family
        assert err.startswith("error: ") and "Traceback" not in err and out == ""


def test_family_formats_and_sidecar(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "family", "G9", "--format", "dot")
    assert code == 0 and out.startswith("graph G9 {") and 'label="v1"' in out
    code, out, _ = run_cli(capsys, "family", "G9", "--format", "json")
    payload = json.loads(out)
    assert payload["n"] == 9 and len(payload["edges"]) == 15
    target = tmp_path / "g9.g6"
    code, _out, _ = run_cli(capsys, "family", "G9", "--output", str(target))
    assert code == 0
    assert graph6.decode(target.read_text().strip()).n == 9
    sidecar = json.loads((tmp_path / "g9.g6.labels.json").read_text())
    assert sidecar["0"] == "u1"


def test_search_n4(tmp_path, capsys):
    out_path = tmp_path / "n4.catalog"
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--output", str(out_path), "--jobs", "1")
    assert code == 0
    lines = [l for l in out_path.read_text().splitlines() if l]
    assert len(lines) == 11
    assert "entries\t11" in out
    meta = json.loads((tmp_path / "n4.catalog.meta.json").read_text())
    assert meta["funnel"]["classes"] == 11


def test_search_rejects_large_n(tmp_path, capsys, monkeypatch):
    def no_level(*_args, **_kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(generate, "all_levels", no_level)
    monkeypatch.setattr(generate, "sweep", no_level)
    path = tmp_path / "x"
    for n, bound in (("12", ()), ("10", ()), ("10", ("--max-degree", "5"))):
        code, out, err = run_cli(capsys, "search", "--n", n, *bound, "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: the level sweeps stop at order 9, got {n}\n"
    assert not path.exists()


def test_search_and_verify_reject_jobs_below_one(tmp_path, capsys):
    for argv in (
        ("search", "--n", "4", "--output", str(tmp_path / "x")),
        ("verify", "obs2"),
    ):
        for jobs in ("0", "-3"):
            code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
            assert code == 2
            assert "--jobs" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_file_errors_are_reported_without_a_traceback(tmp_path, capsys, monkeypatch):
    code, out, err = run_cli(capsys, "params", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err

    def no_run(*_args, **_kwargs):
        raise AssertionError("the command ran before it checked --output")

    # search and verify refuse an --output they cannot write before any work
    monkeypatch.setattr(generate, "enumerate_catalog", no_run)
    monkeypatch.setattr(verify, "run", no_run)
    missing = str(tmp_path / "no" / "such" / "x")
    for argv in (
        ("search", "--n", "3", "--jobs", "1", "--output", missing),
        ("family", "G9", "--output", missing),
        ("verify", "obs2", "--n", "3", "--jobs", "1", "--output", missing),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "No such file" in err, argv
    (tmp_path / "file").write_text("")
    for argv in (
        ("search", "--n", "3", "--jobs", "1", "--output", str(tmp_path / "file" / "x")),
        ("verify", "obs2", "--n", "3", "--jobs", "1", "--output", str(tmp_path / "file" / "x")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Not a directory" in err, argv
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_verify_pass_and_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "obs2.json"
    code, out, _ = run_cli(capsys, "verify", "obs2", "--output", str(out_path), "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert json.loads(out_path.read_text()) == report


def test_verify_rejects_an_order_below_one(capsys):
    for n in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "obs2", "--n", n, "--jobs", "1")
        assert code == 2 and out == ""
        assert "error:" in err and "at least 1" in err


def test_verify_rejects_an_order_for_a_claim_without_one(capsys):
    for claim in ("lemd4", "prop-subdiv", "prop-bip", "search-30"):
        code, out, err = run_cli(capsys, "verify", claim, "--n", "8", "--jobs", "1")
        assert code == 2 and out == ""
        assert "error:" in err and "takes no order" in err


def test_verify_rejects_an_order_past_the_sweeps(capsys, monkeypatch):
    def no_level(*_args, **_kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(generate, "all_levels", no_level)
    monkeypatch.setattr(generate, "sweep", no_level)
    for claim in ("obs1", "lem9"):
        code, out, err = run_cli(capsys, "verify", claim, "--n", "10", "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: the level sweeps stop at order 9, got 10\n"


def test_verify_rejects_more_chord_masks_than_order_9_classes(capsys, monkeypatch):
    def no_graph(*_args, **_kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "g_n", no_graph)
    monkeypatch.setattr(families, "h_n_e", no_graph)
    for claim in ("thm-many", "thm-main"):
        code, out, err = run_cli(capsys, "verify", claim, "--n", "49", "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: 2^19 chord masks at order 49 exceed the order-9 classes\n"


def test_verify_rejects_more_scan_masks_than_order_9_classes(capsys, monkeypatch):
    def no_graph(*_args, **_kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(verify, "path_graph", no_graph)
    monkeypatch.setattr(verify, "cycle_graph", no_graph)
    for n in (20, 62):
        code, out, err = run_cli(capsys, "verify", "obs2", "--n", str(n), "--jobs", "1")
        assert code == 2 and out == ""
        assert err == f"error: 2^{n - 1} scan masks at order {n} exceed the order-9 classes\n"


def test_verify_rejects_a_seed_for_a_claim_without_one(capsys):
    for claim in ("obs1", "obs2", "lem9", "lemd4", "thm-many", "thm-main", "search-30"):
        code, out, err = run_cli(capsys, "verify", claim, "--seed", "3", "--jobs", "1")
        assert code == 2 and out == ""
        assert err == f"error: claim {claim} takes no seed\n"


def test_verify_runs_the_order_given(capsys):
    code, out, _ = run_cli(capsys, "verify", "obs2", "--n", "1", "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert report["scope"] == {"max_order": 1}
    assert report["evidence"]["graphs_checked"] == 1


def test_verify_unknown_claim(capsys):
    code, _out, err = run_cli(capsys, "verify", "nope")
    assert code == 2
    assert "'nope'" in err and "lem9" in err
    code, out, _err = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert all(claim in out for claim in verify.CLAIMS)
    code, _out, err = run_cli(capsys, "family", "G11")
    assert code == 2
    assert "'G11'" in err and "G9" in err


def test_verify_report_determinism(capsys):
    # lem9 reads jobs: at 2 jobs its walk runs in a process pool
    assert "jobs" in inspect.signature(verify.CLAIMS["lem9"]).parameters
    code1, out1, _ = run_cli(capsys, "verify", "lem9", "--n", "7", "--jobs", "1")
    code2, out2, _ = run_cli(capsys, "verify", "lem9", "--n", "7", "--jobs", "2")
    assert code1 == code2 == 0
    a = json.loads(out1)
    b = json.loads(out2)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_importing_the_cli_never_loads_networkx():
    """networkx is a test oracle only; it once cost most of every start."""
    code = "import sys, chromastab.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _run_in_fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


_LOADED = (
    "import sys; print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',"
    " 'chromastab.verify', 'chromastab.families') if m in sys.modules))"
)


def test_a_one_job_search_never_loads_the_pool_or_the_verifiers(tmp_path):
    """The pool, `verify` and `families` are imported by the runs that use them."""
    assert _run_in_fresh_interpreter("import chromastab.cli; " + _LOADED).strip() == "[]"
    target = tmp_path / "cat.g6"
    code = (
        "from chromastab import cli; "
        f"assert cli.main(['search', '--n', '5', '--jobs', '1', '--output', {str(target)!r}]) == 0; "
        + _LOADED
    )
    assert _run_in_fresh_interpreter(code).splitlines()[-1] == "[]"
    assert target.exists()


def test_verify_and_family_load_what_they_use():
    code = (
        "from chromastab import cli; "
        "assert cli.main(['verify', 'obs2', '--n', '3', '--jobs', '1']) == 0; " + _LOADED
    )
    out = _run_in_fresh_interpreter(code).splitlines()
    assert json.loads("\n".join(out[:-1]))["verdict"] == "pass"
    assert out[-1] == "['chromastab.families', 'chromastab.verify']"
    code = "from chromastab import cli; assert cli.main(['family', 'G9']) == 0; " + _LOADED
    out = _run_in_fresh_interpreter(code).splitlines()
    assert out[0] == graph6.encode(families.g9())
    assert out[-1] == "['chromastab.families']"
