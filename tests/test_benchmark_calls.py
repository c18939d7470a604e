"""The kernel calls the benchmark makes, on pure and on the build of
_ckern.c: a kernel renamed or given another signature fails here, not only
in a compiled or traced benchmark run.  perfbench/ is read, never changed."""

import sys
from pathlib import Path

from chromastab import kernels
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
