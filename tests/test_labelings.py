"""The labeling table of the pure backend: a held level's build records every
labeling that `_canon`, the entry of canon_raw and `children`, completes
inside generate._children_of, and the expansion of that level reads them
back.  The table memoizes a pure function, so these tests pin that it
changes no output, and where it is read and filled."""

import concurrent.futures
import contextlib

import pytest

from chromastab import generate, iso
from chromastab.kernels import pure


@pytest.fixture()
def cold(pure_backend, monkeypatch):
    """Pure kernels, an empty level cache and an empty table; the suite's
    cache and table come back afterwards."""
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    monkeypatch.setattr(pure, "_held", {})
    yield
    assert not pure._reusing and pure._making is None


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def build(monkeypatch, max_degree, top):
    """all_levels(top, max_degree) from cold, with every
    _children_of output it made, and the number of canon_raw searches."""
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    outputs = {}
    expand = generate._children_of

    def recording(task):
        outputs[task] = expand(task)
        return outputs[task]

    with monkeypatch.context() as mp:
        mp.setattr(generate, "_children_of", recording)
        searches = counted(mp, pure, "_label")
        levels = generate.all_levels(top, max_degree)
    return levels, outputs, len(searches)


@pytest.mark.parametrize("max_degree,top", [(None, 7), (4, 8)])
def test_levels_are_the_same_with_the_table_filled_and_empty(cold, monkeypatch, max_degree, top):
    """Every level, key for key and row for row, and every _children_of
    output made while building them, with the table and with every lookup
    missing an empty table."""
    levels, outputs, searches = build(monkeypatch, max_degree, top)
    monkeypatch.setattr(pure, "_filling_labelings", contextlib.nullcontext)
    monkeypatch.setattr(pure, "_held", {})
    levels_empty, outputs_empty, searches_empty = build(monkeypatch, max_degree, top)
    assert levels == levels_empty
    assert outputs == outputs_empty
    assert len(outputs) == sum(len(levels[k]) for k in range(1, top))
    assert searches < searches_empty


def test_canon_data_of_every_order7_class_is_the_same_from_the_table(cold, monkeypatch):
    """After level 7 is built, every piece of every order-7 class is in the
    table, so canon_data in the table's scope searches nothing and gives
    what a full search gives."""
    level = generate.levels_up_to(7)
    searches = counted(monkeypatch, pure, "_label")
    with pure._reusing_labelings():
        served = [iso.canon_data(7, rows) for _key, rows in level]
    assert searches == []
    assert served == [iso.canon_data(7, rows) for _key, rows in level]
    assert len(searches) >= len(level)


def test_the_table_holds_the_labelings_of_the_last_level_built(cold, monkeypatch):
    """Every labeling `_canon` completed while the last level was built, and
    no other: a child that the last-cell test rejects leaves no entry."""
    generate.levels_up_to(5)
    canon = pure._canon
    for k in (6, 7):
        labeled = []

        def recording(n, rows, *last):
            labeling = canon(n, rows, *last)
            labeled.append((rows, labeling))
            return labeling

        with monkeypatch.context() as mp:
            mp.setattr(pure, "_canon", recording)
            generate.levels_up_to(k)
        made = {rows for rows, labeling in labeled if labeling is not None}
        assert made and set(pure._held) == made
        assert any(labeling is None for _rows, labeling in labeled)
        for rows, labeling in pure._held.items():
            assert labeling == pure._label(len(rows), rows)


def test_streaming_the_top_order_adds_no_entry(cold, monkeypatch):
    generate.levels_up_to(6)
    held = pure._held
    snapshot = dict(held)
    calls = counted(monkeypatch, pure, "_canon")
    searches = counted(monkeypatch, pure, "_label")
    streamed = list(generate.walk(7, first=7))
    assert len(streamed) == generate.KNOWN_CLASS_COUNTS[7]
    assert pure._held is held and held == snapshot
    # the stream read the level-6 table
    assert 0 < len(searches) < len(calls)


def test_canon_raw_outside_children_of_still_searches(cold, monkeypatch):
    generate.levels_up_to(6)
    rows = max(pure._held, key=len)
    searches = counted(monkeypatch, pure, "_label")
    labeling = pure.canon_raw(len(rows), rows)
    assert searches and labeling == pure._held[rows]
    searches.clear()
    with pure._reusing_labelings():
        assert pure.canon_raw(len(rows), rows) is pure._held[rows]
    assert searches == []
    assert pure.canon_raw(len(rows), rows) == labeling and searches


def test_no_scope_stays_open(cold, monkeypatch):
    """Closing a walk mid-stream, or an error inside a sweep, leaves neither
    scope open, and a build that fails keeps the table it found."""
    walk = generate.walk(6, first=6)
    next(walk)
    walk.close()
    assert not pure._reusing and pure._making is None
    held = pure._held
    assert held

    def failing(*_args):
        raise RuntimeError("no children")

    monkeypatch.setattr(pure, "children", failing)
    with pytest.raises(RuntimeError, match="no children"):
        generate.levels_up_to(7)
    assert not pure._reusing and pure._making is None and pure._held is held
    monkeypatch.setattr(iso, "canon_data", failing)
    with pytest.raises(RuntimeError, match="no children"):
        list(generate.walk(7, first=7))
    assert not pure._reusing and pure._making is None and pure._held is held


def test_a_pooled_walk_leaves_the_table_a_one_job_walk_leaves(cold, monkeypatch):
    """Held levels are built in this process at every job count; only the
    streamed top order runs in a pool, and it streams what one job does."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(generate, "default_jobs", lambda: 2)
    pooled = list(generate.walk(6, jobs=2))
    assert started == [2]
    table = pure._held
    generate._LEVEL_CACHE.clear()
    pure._held = {}
    assert list(generate.walk(6, jobs=1)) == pooled
    assert started == [2] and table and pure._held == table
