"""The kernel calls the benchmark makes, on pure and on the build of
_ckern.c: a kernel renamed or given another signature fails here, not only
in a compiled or traced benchmark run.  perfbench/ is read, never changed."""

import contextlib
import sys
from pathlib import Path

from chromastab import generate, kernels
from chromastab.kernels import pure

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpora  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_corpus_calls_agree_on_pure_and_the_build(built_ckern, monkeypatch):
    """corpora.measure, with the build as the compiled backend, times every
    CALLS entry on both backends and finds the same outputs."""
    monkeypatch.setattr(kernels, "_compiled", built_ckern)
    monkeypatch.setattr(kernels, "_active", pure)
    assert {kernel for _corpus, kernel in corpora.PLAN} == set(corpora.CALLS)
    checks = workloads.Checks()
    metrics, timings = corpora.measure(checks)
    assert checks.failures == []
    assert checks.attempted == 2 * len(corpora.PLAN)
    assert metrics["corpus.backends"] == 2 and set(timings) == {"pure", "compiled"}


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_patches_every_name_on_the_build_and_restores_it(built_ckern, monkeypatch):
    """workloads.instrument on the build as the active backend wraps every
    name it patches, its kernels included, a wrapped kernel records a span,
    and unpatch puts every original back."""
    monkeypatch.setattr(kernels, "_active", built_ckern)
    tracer = Tracer()
    try:
        workloads.instrument(tracer)
        patched = list(tracer._patched)
        assert any(owner is built_ckern for owner, _attr, _original in patched)
        for owner, attr, original in patched:
            assert current(owner, attr).__wrapped__ is original, attr
        assert built_ckern.chromatic_number(3, (6, 5, 3)) == 3
        assert [span[0] for span in tracer.spans] == ["kernels.chromatic_number"]
    finally:
        tracer.unpatch()
    assert tracer._patched == []
    for owner, attr, original in patched:
        assert current(owner, attr) is original, attr


def traced_cold_levels(monkeypatch, top):
    """{span name: calls} of a traced levels_up_to(top) on pure from cold,
    and the number of canon_raw searches it made."""
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    monkeypatch.setattr(pure, "_held", {})
    searches = []
    label = pure._label

    def counting(n, rows, *last):
        searches.append(n)
        return label(n, rows, *last)

    monkeypatch.setattr(pure, "_label", counting)
    tracer = Tracer()
    workloads.instrument(tracer)
    try:
        generate.levels_up_to(top)
    finally:
        tracer.unpatch()
    return {name: entry["calls"] for name, entry in tracer.stats().items()}, len(searches)


def test_labelings_from_the_table_stay_inside_the_traced_canon_raw(monkeypatch):
    """Serving labelings from the table moves no traced span: a traced cold
    levels_up_to(6) records as many kernels.canon_raw spans (the parents'
    canon_data labelings; `children` labels through pure._canon, as the
    compiled kernel labels inside its own call) and canon_data spans with
    the table as without it, and only the searches fall."""
    monkeypatch.setattr(kernels, "_active", pure)
    spans, searches = traced_cold_levels(monkeypatch, 6)
    monkeypatch.setattr(pure, "_filling_labelings", contextlib.nullcontext)
    spans_empty, searches_empty = traced_cold_levels(monkeypatch, 6)
    for name in ("kernels.canon_raw", "iso.canon_data"):
        assert spans[name] == spans_empty[name] > 0, name
    assert spans == spans_empty
    assert searches < searches_empty
