import concurrent.futures
import hashlib
import itertools
import random
from functools import lru_cache

import pytest

from chromastab import generate, graph6, iso, kernels, oracles
from chromastab.generate import Catalog, GenSpec, GenerateError
from chromastab.graph import Graph, bits, component_masks
from chromastab.kernels import pure

from conftest import generated_orbits


def test_known_counts_small():
    for n in range(1, 8):
        assert len(generate.levels_up_to(n)) == generate.KNOWN_CLASS_COUNTS[n]


# Parents whose every candidate child is canonically labeled below:
# (max_degree, largest parent order).
UNREDUCED_SWEEPS = ((None, 6), (3, 7), (4, 7))


@lru_cache(maxsize=None)
def _unreduced_expansion(max_degree, top):
    """[(parent rows, [(neighbor mask, child rows, perm), ...])] for every
    parent of order <= top: all neighbor subsets of the vertices below the
    degree bound, no pruning of any kind.  perm is the child's canonical
    labeling when canon_data accepts it (new vertex in the last orbit),
    else None."""
    out = []
    levels = generate.all_levels(top, max_degree)
    for n in range(1, top + 1):
        cap = n if max_degree is None else max_degree
        for _key, rows in levels[n]:
            eligible = [u for u in range(n) if rows[u].bit_count() < cap]
            candidates = []
            for size in range(min(cap, len(eligible)) + 1):
                for nbrs in itertools.combinations(eligible, size):
                    x = sum(1 << u for u in nbrs)
                    child = tuple(
                        [r | (1 << n) if x >> u & 1 else r for u, r in enumerate(rows)] + [x]
                    )
                    data = iso.canon_data(n + 1, child)
                    orbits = generated_orbits(n + 1, data.generators)
                    accepted = orbits[n] == orbits[data.perm.index(n)]
                    candidates.append((x, child, data.perm if accepted else None))
            out.append((rows, candidates))
    return out


@pytest.mark.parametrize("max_degree,top", UNREDUCED_SWEEPS)
def test_pretest_never_rejects_an_accepted_child(max_degree, top):
    for rows, candidates in _unreduced_expansion(max_degree, top):
        n = len(rows)
        degree = [r.bit_count() for r in rows]
        comps = component_masks(n, rows)
        comp_of = [next(c for c in comps if c >> v & 1) for v in range(n)]
        for x, _child, perm in candidates:
            if perm is not None:
                assert pure._may_be_last(
                    x, list(bits(x)), [list(bits(r)) for r in rows], degree, comps, comp_of
                ), (rows, x)


def in_degree_pools(rows, x):
    """Whether pure `children` visits neighbor mask x of the parent rows: a
    d-subset of the vertices of degree below d, with d at least the
    parent's max degree when the parent is connected."""
    n = len(rows)
    degree = [r.bit_count() for r in rows]
    d = x.bit_count()
    first = max(degree, default=0) if len(component_masks(n, rows)) == 1 else 0
    return d >= first and all(degree[u] < d for u in bits(x))


@pytest.mark.parametrize("max_degree,top", UNREDUCED_SWEEPS)
def test_degree_pools_skip_only_subsets_the_pretest_rejects(monkeypatch, max_degree, top):
    """Every neighbor subset of the vertices below the cap that lies outside
    the degree pools fails _may_be_last, and every subset that pure
    `children` pre-tests lies inside them."""
    pretested = []
    may_be_last = pure._may_be_last

    def recording(x, *args):
        pretested.append(x)
        return may_be_last(x, *args)

    for rows, candidates in _unreduced_expansion(max_degree, top):
        n = len(rows)
        nbrs = [bits(r) for r in rows]
        degree = [r.bit_count() for r in rows]
        comps = component_masks(n, rows)
        comp_of = [next(c for c in comps if c >> v & 1) for v in range(n)]
        for x, _child, _perm in candidates:
            if not in_degree_pools(rows, x):
                assert not may_be_last(x, list(bits(x)), nbrs, degree, comps, comp_of), (rows, x)
        with monkeypatch.context() as mp:
            mp.setattr(pure, "_may_be_last", recording)
            pretested.clear()
            pure.children(n, rows, max_degree, iso.canon_data(n, rows).generators)
        assert all(in_degree_pools(rows, x) for x in pretested), rows


# sha256 over every (order, key, rows) of all_levels(7) and all_levels(8, 4),
# taken before `children` walked its subsets by degree pools
LEVELS_DIGEST = "e42ac79c5e2592ce5ad9dae900d92f06e0755890c71ba01c75299ea90e1e8165"


def levels_digest():
    h = hashlib.sha256()
    for args in ((7,), (8, 4)):
        levels = generate.all_levels(*args)
        for n in sorted(levels):
            for key, rows in levels[n]:
                h.update(repr((n, key, tuple(rows))).encode())
    return h.hexdigest()


def test_levels_keep_their_keys_and_representative_rows(monkeypatch, backend):
    """Levels built from scratch on each backend hash to the pinned digest:
    the same classes, each with the same representative rows."""
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    monkeypatch.setattr(pure, "_held", pure._held)
    monkeypatch.setattr(kernels, "_active", backend)
    assert levels_digest() == LEVELS_DIGEST


@pytest.mark.parametrize("max_degree,top", UNREDUCED_SWEEPS)
def test_reduced_expansion_matches_unreduced(max_degree, top):
    for rows, candidates in _unreduced_expansion(max_degree, top):
        n = len(rows)
        first = {}
        # the smallest neighbor mask of each accepted class is kept
        for _x, child, perm in sorted(candidates, key=lambda c: c[0]):
            if perm is not None:
                relabeled = [0] * (n + 1)
                for v in range(n + 1):
                    for u in bits(child[v]):
                        relabeled[perm[v]] |= 1 << perm[u]
                key = graph6.encode_rows(n + 1, relabeled).encode()
                first.setdefault(key, child)
        want = sorted(first.items())
        assert generate._children_of((n, rows, max_degree)) == want


def test_each_parent_is_labeled_once(monkeypatch):
    """_children_of labels the parent with one canon_data call and leaves
    its children to the kernel."""
    calls = []
    canon_data = iso.canon_data

    def counting(n, rows):
        calls.append(n)
        return canon_data(n, rows)

    monkeypatch.setattr(iso, "canon_data", counting)
    for n, level in generate.all_levels(6).items():
        for _key, rows in level:
            calls.clear()
            generate._children_of((n, rows, 4))
            assert calls == [n]


@pytest.mark.parametrize("max_degree", [None, 3, 4])
def test_level_keys_are_canonical_forms(max_degree):
    for n, level in generate.all_levels(7, max_degree).items():
        keys = [key for key, _rows in level]
        assert keys == sorted(set(keys))
        for key, rows in level:
            assert key == iso.canonical_form(Graph(n, rows))


def test_spec_validation(monkeypatch):
    with pytest.raises(GenerateError):
        GenSpec(0).validate()
    with pytest.raises(GenerateError):
        GenSpec(11).validate()
    with pytest.raises(GenerateError):
        GenSpec(11, max_degree=4).validate()
    GenSpec(10, max_degree=4).validate()  # 108,376 classes
    with pytest.raises(GenerateError):
        GenSpec(5, max_degree=9).validate()
    with pytest.raises(GenerateError):
        GenSpec(5, predicate="nope").validate()
    with pytest.raises(GenerateError):
        GenSpec(5, predicate=lambda g: True).validate()
    with pytest.raises(GenerateError):
        generate.enumerate_catalog(GenSpec(12))

    def no_level(*_args, **_kwargs):
        raise AssertionError("a level was built")

    # every level build checks the order before it sweeps a level
    monkeypatch.setattr(generate, "sweep", no_level)
    for build in (
        lambda: generate.levels_up_to(0),
        lambda: generate.levels_up_to(11),
        lambda: generate.levels_up_to(11, 4),
        lambda: next(generate.walk(11)),
    ):
        with pytest.raises(GenerateError):
            build()
    monkeypatch.setattr(generate, "all_levels", no_level)
    for max_degree in (None, 5):
        with pytest.raises(GenerateError, match="^the level sweeps stop at order 9, got 10$"):
            generate.enumerate_catalog(GenSpec(10, max_degree=max_degree))


def test_matches_bruteforce_dedup_n5():
    keys = set()
    for g in oracles.all_labeled_graphs(5):
        keys.add(oracles.brute_canonical_key(g)[0])
    level = generate.levels_up_to(5)
    assert len(level) == len(keys) == 34
    # the enumerated representatives cover exactly the brute-force classes
    enum_keys = set()
    for _key, rows in level:
        enum_keys.add(oracles.brute_canonical_key(Graph(5, rows))[0])
    assert enum_keys == keys


def test_connected_only_counts():
    cat5 = generate.enumerate_catalog(GenSpec(5, connected_only=True))
    assert len(cat5.entries) == 21
    cat6 = generate.enumerate_catalog(GenSpec(6, connected_only=True))
    assert len(cat6.entries) == 112


def test_degree_bound_matches_postfilter():
    for bound in (2, 3):
        bounded = {key for key, _ in generate.levels_up_to(6, max_degree=bound)}
        unbounded = generate.levels_up_to(6)
        filtered = {
            key
            for key, rows in unbounded
            if Graph(6, rows).max_degree <= bound
        }
        assert bounded == filtered


def test_catalog_keys_strictly_increasing(s9_catalog):
    keys = s9_catalog.keys()
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_no_two_catalog_entries_isomorphic(s9_catalog):
    graphs = s9_catalog.graphs()
    rng = random.Random(1)
    for _ in range(100):
        i, j = rng.sample(range(len(graphs)), 2)
        assert not iso.are_isomorphic(graphs[i], graphs[j])


def test_edge_addition_links_n4():
    cat = generate.enumerate_catalog(GenSpec(4))
    links = generate.edge_addition_links(cat)
    # brute-force recomputation over the 11 classes
    brute = set()
    graphs = {e.key: graph6.decode(e.key) for e in cat.entries}
    for ka, a in graphs.items():
        for u in range(4):
            for v in range(u + 1, 4):
                if a.has_edge(u, v):
                    continue
                child = a.add_edges([(u, v)])
                for kb, b in graphs.items():
                    if oracles.brute_is_isomorphic(child, b):
                        brute.add((ka, kb))
    assert set(links) == brute
    assert len(set(b for _a, b in links)) == 10  # every nonempty graph has a parent


def test_edge_addition_links_edge_cases():
    cat = generate.enumerate_catalog(GenSpec(3))
    single = Catalog(cat.entries[:1], {})
    assert generate.edge_addition_links(single) == []
    mixed = Catalog(
        generate.enumerate_catalog(GenSpec(2)).entries + cat.entries[:1], {}
    )
    with pytest.raises(GenerateError):
        generate.edge_addition_links(mixed)


def test_count_planar():
    cat = generate.enumerate_catalog(GenSpec(4))
    assert sum(e.report.planar for e in cat.entries) == 11


def test_catalog_roundtrip(tmp_path):
    cat = generate.enumerate_catalog(GenSpec(5))
    path = tmp_path / "c5.catalog"
    generate.write_catalog(cat, path)
    back = generate.read_catalog(path)
    assert back.keys() == cat.keys()
    assert [e.report for e in back.entries] == [e.report for e in cat.entries]
    assert back.meta["funnel"] == cat.meta["funnel"]


def test_worker_count_determinism(tmp_path):
    spec = GenSpec(6, predicate="family-members")
    a = tmp_path / "a.catalog"
    b = tmp_path / "b.catalog"
    generate.write_catalog(generate.enumerate_catalog(spec, jobs=1), a)
    generate.write_catalog(generate.enumerate_catalog(spec, jobs=2), b)
    assert a.read_bytes() == b.read_bytes()


def test_family_member_filter_is_empty_below_order_9():
    # the color-class bound forces at least ivs * chi = 9 vertices
    cat = generate.enumerate_catalog(GenSpec(8, max_degree=4, predicate="family-members"))
    assert len(cat.entries) == 0
    assert cat.meta["funnel"]["ivs=3"] == 0


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, and whether a
    labeling table was being filled, and maps in process."""

    created = []
    filling = []

    def __init__(self, max_workers):
        self.created.append(max_workers)
        self.filling.append(pure._making is not None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_pool_size_is_capped_by_tasks_and_usable_cpus(monkeypatch):
    # _pmap imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(generate.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(_SerialPool, "filling", [])
    tasks = list(range(-10, 0))
    assert list(generate._pmap(abs, tasks, jobs=5000)) == [abs(t) for t in tasks]
    assert list(generate._pmap(abs, tasks[:2], jobs=5000)) == [10, 9]
    assert list(generate._pmap(abs, tasks, jobs=2)) == [abs(t) for t in tasks]
    assert list(generate._pmap(abs, tasks[:1], jobs=5000)) == [10]  # no pool
    assert _SerialPool.created == [3, 2, 2]
    assert generate.default_jobs() == 3

    _SerialPool.created.clear()
    monkeypatch.setattr(generate, "_LEVEL_CACHE", {})
    cat = generate.enumerate_catalog(GenSpec(5, predicate="stability-gap"), jobs=5000)
    assert cat.meta["funnel"]["classes"] == 34
    # levels 2-4 are built in process; one pool streams order 5
    assert _SerialPool.created == [3]
    assert not any(_SerialPool.filling)


def test_sweep_rejects_a_class_from_two_parents(monkeypatch):
    parents = generate.levels_up_to(3)
    child = generate._children_of((3, parents[0][1], None))[0]
    monkeypatch.setattr(generate, "_children_of", lambda task: [child])
    with pytest.raises(AssertionError, match="duplicate class across parents"):
        list(generate.sweep(parents))


@pytest.mark.parametrize("jobs", [1, 2])
def test_streamed_sweep_matches_records_over_the_next_level(jobs):
    level = generate.levels_up_to(7)
    for name in ("family-members", "stability-gap"):
        fn = generate.NAMED_PREDICATES[name]["fn"]
        streamed = [(key, rows, value) for _order, key, rows, value
                    in generate.walk(7, None, fn, jobs, first=7)]
        # every record equal, hence every stage count and every hit
        assert sorted(streamed) == [(key, rows, fn(rows)) for key, rows in level]
        stages = {stage for _key, _rows, (stage, _values) in streamed}
        assert len(streamed) == generate.KNOWN_CLASS_COUNTS[7] and len(stages) >= 2
