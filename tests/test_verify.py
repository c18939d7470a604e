import ast
import functools
import hashlib
import inspect
import json

import pytest

from chromastab import families, generate, graph6, verify
from chromastab.graph import cycle_graph
from chromastab.verify import VerificationReport, _Check

from conftest import JOBS


def test_unknown_claim():
    with pytest.raises(KeyError):
        verify.run("nope")


# the run parameters each verifier declares (besides the _Check it records on)
ACCEPTED = {
    "obs1": {"n", "jobs"},
    "obs2": {"n"},
    "lem9": {"n", "jobs"},
    "lemd4": {"jobs"},
    "prop-subdiv": {"seed", "jobs"},
    "thm-many": {"n"},
    "prop-bip": {"seed"},
    "thm-main": {"n"},
    "search-30": {"jobs"},
}


@pytest.mark.parametrize("claim", sorted(ACCEPTED))
def test_run_passes_exactly_the_declared_parameters(claim, monkeypatch):
    verifier = verify.CLAIMS[claim]
    calls = []

    @functools.wraps(verifier)  # keeps the signature that run reads
    def spy(chk, **params):
        calls.append(params)
        return {}

    monkeypatch.setitem(verify.CLAIMS, claim, spy)
    assert set(inspect.signature(spy).parameters) == {"chk"} | ACCEPTED[claim]
    jobs = {"jobs": 3} if "jobs" in ACCEPTED[claim] else {}
    for name, what in (("n", "order"), ("seed", "seed")):
        if name in ACCEPTED[claim]:
            rep = verify.run(claim, jobs=3, **{name: 5})
            assert calls.pop() == {**jobs, name: 5}
            assert rep.claim == claim
        else:
            with pytest.raises(ValueError, match=f"claim {claim} takes no {what}$"):
                verify.run(claim, jobs=3, **{name: 5})
    verify.run(claim, jobs=3)
    assert calls == [jobs]


def test_verifiers_read_every_parameter_they_declare():
    """A verifier reads each parameter it declares, and leaves its claim id
    to run."""
    for claim, verifier in verify.CLAIMS.items():
        tree = ast.parse(inspect.getsource(verifier)).body[0]
        declared = {a.arg for a in tree.args.args + tree.args.kwonlyargs}
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert declared <= read, (claim, declared - read)
        assert claim not in {n.value for n in nodes if isinstance(n, ast.Constant)}


def test_check_records_first_failure_only(monkeypatch):
    def demo(chk):
        assert chk.expect(True, "fine")
        assert not chk.expect(False, "first", graph="Bw", detail=1)
        chk.expect(False, "second")
        assert chk.failure["assertion"] == "first"
        assert chk.failure["graph6"] == "Bw"
        return {"x": 1}

    monkeypatch.setitem(verify.CLAIMS, "demo", demo)
    rep = verify.run("demo")
    assert (rep.claim, rep.scope, rep.verdict) == ("demo", {"x": 1}, "fail")
    assert rep.evidence["counterexample"]["assertion"] == "first"


def test_report_serialization_shape():
    rep = VerificationReport("demo", {"n": 3}, "pass", {"k": 1}, 0.5)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert list(blob) == ["claim", "scope", "verdict", "evidence", "wall_time_s"]
    assert rep.passed


def test_obs2_floor_values():
    rep = verify.run("obs2", jobs=1)
    assert rep.passed
    assert rep.evidence["graphs_checked"] == 12 + 10


def test_thm_many_single_order_scope():
    rep = verify.run("thm-many", n=13, jobs=1)
    assert rep.passed
    assert rep.scope == {"orders": [13]}
    assert rep.evidence["graphs_per_order"] == {13: 2}
    # g_n(11) is a class member, but the chorded family starts at order 13;
    # below 11 its chord count would be negative
    for n in (9, 10, 11):
        with pytest.raises(families.FamilyError, match="n >= 13"):
            verify.run("thm-many", n=n, jobs=1)


def test_thm_main_single_order_scope():
    rep = verify.run("thm-main", n=11, jobs=1)
    assert rep.passed
    assert rep.evidence["per_order"][11] == {"required": 1, "exhibited": 1}


def test_prop_bip_seeded_reproducibility():
    a = verify.run("prop-bip", seed=3, jobs=1).to_dict()
    b = verify.run("prop-bip", seed=3, jobs=1).to_dict()
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b
    c = verify.run("prop-bip", seed=4, jobs=1)
    assert c.passed
    assert c.evidence["random_hosts"] != a["evidence"]["random_hosts"]


def test_prop_subdiv_seeded(s9_catalog):
    rep = verify.run("prop-subdiv", seed=1, jobs=JOBS)
    assert rep.passed
    assert rep.scope["seed"] == 1


def test_lem9_small_scope_only():
    rep = verify.run("lem9", n=6, jobs=1)
    assert rep.passed
    assert rep.evidence["classes_scanned"] == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    assert "order9_hits" not in rep.evidence


@pytest.mark.parametrize("claim", ["lem9", "obs1"])
def test_scan_expands_each_parent_once_and_never_holds_the_top_order(claim, monkeypatch):
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    expand = generate._children_of
    calls = []

    def counted(task):
        calls.append(task[0])
        return expand(task)

    monkeypatch.setattr(generate, "_children_of", counted)
    assert verify.run(claim, n=7, jobs=1).passed
    assert len(calls) == sum(generate.KNOWN_CLASS_COUNTS[k] for k in range(1, 7)) == 208
    assert 7 not in generate._LEVEL_CACHE[None]


def test_search_30_report(s9_catalog):
    rep = verify.run("search-30", jobs=JOBS)
    assert rep.passed
    assert rep.evidence["entries"] == 30
    assert rep.evidence["planar"] == 11
    assert rep.evidence["edge_addition"] == {
        "links": 46,
        "targets": 23,
        "planar_targets": 4,
    }


PINNED_CLAIMS = ("obs2", "lemd4", "prop-subdiv", "thm-many", "prop-bip", "thm-main", "search-30")
PINNED_REPORTS_DIGEST = "888a9b7edc23e12512eb4e3a692885e199da36b1d06aea1f6b98d59a76ed5116"


def test_verifier_reports_are_pinned(s9_catalog):
    """Every default-argument report except obs1 and lem9 (the slow sweeps),
    without its wall time, hashes to a fixed value on both backends."""
    reports = []
    for claim in PINNED_CLAIMS:
        d = verify.run(claim, jobs=1).to_dict()
        d.pop("wall_time_s")
        reports.append(d)
    blob = b"\n".join(json.dumps(d, separators=(",", ":")).encode() for d in reports)
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS_DIGEST


def test_member_failure_states_the_profile():
    chk = _Check()
    c5 = cycle_graph(5)
    assert not chk.member(c5, "C5", n=5)
    assert chk.failure == {
        "assertion": "C5: (2, 3, 1, 1)",
        "graph6": graph6.encode(c5),
        "context": {"n": 5},
    }


def test_rejects_needs_the_named_diagnostic():
    c6 = cycle_graph(6)
    build = families.bipartite_construction
    assert _Check().rejects("even_distance", build, c6, 0, 2)
    for a, b in ((0, 3), (0, 1)):  # accepted, and rejected as adjacent
        chk = _Check()
        assert not chk.rejects("even_distance", build, c6, a, b)
        assert chk.failure["graph6"] == graph6.encode(c6)
        assert chk.failure["context"] == {"args": [a, b]}
