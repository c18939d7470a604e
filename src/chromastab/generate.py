"""Isomorph-free exhaustive generation of small graphs by canonical augmentation.

Each level extends every parent by one new vertex attached to every
admissible neighbor subset; a child is accepted only when the new vertex
lies in the automorphism orbit of the canonically last vertex (McKay 1998,
"Isomorph-free exhaustive generation").  Distinct parents then never produce
isomorphic accepted children, so a per-parent key dedup suffices and the
output is independent of scheduling.  A class's key is `iso.canon_data`'s
graph6 key, the canonical graph6 bytes that catalogs and
`iso.canonical_form` use too.

Two reductions skip canonical labeling whose answer is already known; both
leave every level's keys and representatives unchanged:

- pre-test: a child is labeled only if its new vertex lies in a largest
  component, has the maximum degree there and the largest sorted neighbor
  degrees among the vertices of that degree.  The canonically last vertex
  always does: canon_data puts a largest component last, and canon_raw's
  refinement orders vertices by degree, then by neighbor degrees, before
  any split.
- orbit reduction: neighbor subsets are visited in ascending order, and a
  subset that an earlier one reaches under the parent's automorphism
  generators is skipped.  The automorphism extends to an isomorphism of the
  two children, so the skipped child repeats the first one's key.  The
  generators generate the parent's automorphism group, so each orbit of
  subsets is labeled at most once.

Sweeps stream.  `sweep` yields the classes one order above a level parent
by parent, each with its record (such as `chromatic.profile`) computed where
the child is generated, so a caller that only counts holds one parent's
children at a time, plus the keys seen so far for the cross-parent duplicate
check.  `all_levels` sorts and caches the same stream as whole levels.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from chromastab import graph6, iso
from chromastab.chromatic import CLASS_PROFILE, StabilityReport, analyze, profile
from chromastab.graph import Graph, bits, component_masks, mask_of

EXHAUSTIVE_CAP = 10

KNOWN_CLASS_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668,
}


class GenerateError(ValueError):
    pass


@dataclass(frozen=True)
class GenSpec:
    """What to enumerate: order, optional degree bound, optional filters.

    `predicate` is either one of the named filters ("family-members",
    "stability-gap") or any callable Graph -> bool.
    """

    n: int
    max_degree: int | None = None
    connected_only: bool = False
    predicate: object = None

    def validate(self):
        if not 1 <= self.n <= EXHAUSTIVE_CAP:
            raise GenerateError(
                f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_CAP}, got {self.n}"
            )
        if self.max_degree is not None and not 0 <= self.max_degree <= self.n - 1:
            raise GenerateError(f"max_degree {self.max_degree} outside 0..n-1")
        if isinstance(self.predicate, str) and self.predicate not in NAMED_PREDICATES:
            raise GenerateError(f"unknown predicate {self.predicate!r}")


@dataclass(frozen=True)
class CatalogEntry:
    key: str  # canonical graph6
    report: StabilityReport


@dataclass(frozen=True)
class Catalog:
    entries: tuple
    meta: dict = field(default_factory=dict)

    def keys(self):
        return [e.key for e in self.entries]

    def graphs(self):
        return [graph6.decode(e.key) for e in self.entries]


# ---------------------------------------------------------------------------
# level expansion
# ---------------------------------------------------------------------------


def _children_of(task):
    """Accepted one-vertex extensions of a parent: sorted list of (key, rows),
    key being the child's canonical graph6 bytes.

    Neighbor subsets are visited in ascending order.  A subset that an
    earlier one reaches under the parent's automorphism generators is
    skipped, and a child is canonically labeled only when its new vertex
    passes `_may_be_last`.
    """
    n, rows, max_degree = task
    cap = n if max_degree is None else max_degree
    eligible = mask_of(u for u in range(n) if rows[u].bit_count() < cap)
    degree = [r.bit_count() for r in rows]
    comps = component_masks(n, rows)
    comp_of = [0] * n
    for comp in comps:
        for v in bits(comp):
            comp_of[v] = comp
    gens = iso.canon_data(n, rows).generators
    newbit = 1 << n
    seen = set()
    accepted = {}
    x = 0
    while True:
        if (
            x.bit_count() <= cap
            and x not in seen
            and _may_be_last(x, rows, degree, comps, comp_of)
        ):
            seen.update(_orbit(x, gens))
            child = list(rows)
            for u in bits(x):
                child[u] |= newbit
            child.append(x)
            crows = tuple(child)
            data = iso.canon_data(n + 1, crows)
            if data.last_orbit >> n & 1:
                accepted.setdefault(data.key, crows)
        if x == eligible:
            break
        x = (x - eligible) & eligible  # next subset of `eligible`, ascending
    return sorted(accepted.items())


def _may_be_last(x, rows, degree, comps, comp_of):
    """Whether a new vertex joined to `x` can be canonically last.

    canon_data puts a largest component last.  Within a component,
    canon_raw's first refinement round orders vertices by degree, the second
    by the sorted degrees of their neighbors, and later splits keep that
    order.  So the canonically last vertex (and its whole orbit) lies in a
    largest component, has the maximum degree d there, and has the largest
    sorted neighbor degrees among the vertices of degree d.
    """
    d = x.bit_count()
    merged = 0
    for u in bits(x):
        merged |= comp_of[u]
    size = merged.bit_count() + 1
    if any(comp.bit_count() > size for comp in comps if not comp & merged):
        return False
    mine = sorted(degree[u] + 1 for u in bits(x))
    for v in bits(merged):
        joined = x >> v & 1
        if degree[v] + joined > d:
            return False
        if degree[v] + joined == d:
            theirs = [degree[u] + (x >> u & 1) for u in bits(rows[v])]
            if joined:
                theirs.append(d)
            if sorted(theirs) > mine:
                return False
    return True


def _orbit(x, gens):
    """The orbit of vertex mask x under the group generated by gens."""
    orbit = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for gen in gens:
            z = mask_of(gen[u] for u in bits(y))
            if z not in orbit:
                orbit.add(z)
                stack.append(z)
    return orbit


def _pmap(fn, tasks, jobs, chunksize=16):
    """Yield fn(task) for every task, in task order.

    The pool starts at most one worker per task and per usable CPU, and
    none at all when that leaves a single worker.
    """
    workers = min(jobs, len(tasks), default_jobs())
    if workers <= 1:
        for task in tasks:
            yield fn(task)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks, chunksize=chunksize)


def default_jobs() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _sweep_parent(task):
    n, rows, max_degree, fn = task
    return [
        (key, crows, None if fn is None else fn(crows))
        for key, crows in _children_of((n, rows, max_degree))
    ]


def sweep(parents, max_degree=None, fn=None, jobs=1):
    """Yield (key, rows, fn(rows)) for every class one order above a level.

    `parents` is a whole level as (key, rows) pairs.  Classes come parent by
    parent, in the order given, and by key within a parent, so the stream
    does not depend on `jobs`; fn runs where the child is generated, and
    the third item is None without it.  Only the keys seen so far are kept,
    to check that no class comes from two parents.
    """
    tasks = [(len(rows), rows, max_degree, fn) for _key, rows in parents]
    seen = set()
    for children in _pmap(_sweep_parent, tasks, jobs):
        for child in children:
            if child[0] in seen:
                raise AssertionError("duplicate class across parents")
            seen.add(child[0])
            yield child


def records(level, fn, jobs=1):
    """Yield (key, rows, fn(rows)) for every class of a level, in order."""
    values = _pmap(fn, [rows for _key, rows in level], jobs, chunksize=64)
    for (key, rows), value in zip(level, values):
        yield key, rows, value


_LEVEL_CACHE = {}


def all_levels(n, max_degree=None, jobs=1):
    """{order: sorted list of (graph6 key, rows)} for every order 1..n, one
    representative per isomorphism class (respecting the degree bound).
    Levels are cached per max_degree within the process and extended on demand."""
    k1 = (graph6.encode_rows(1, (0,)).encode(), (0,))
    levels = _LEVEL_CACHE.setdefault(max_degree, {1: [k1]})
    for k in range(1, n):
        if k + 1 not in levels:
            children = sweep(levels[k], max_degree, jobs=jobs)
            levels[k + 1] = sorted((key, rows) for key, rows, _ in children)
    return {k: levels[k] for k in range(1, n + 1)}


def levels_up_to(n, max_degree=None, jobs=1):
    """One representative of every isomorphism class of order exactly n
    (respecting the degree bound), as a sorted list of (graph6 key, rows)."""
    return all_levels(n, max_degree, jobs)[n]


def class_count(n, max_degree=None, jobs=1) -> int:
    return len(levels_up_to(n, max_degree, jobs))


# ---------------------------------------------------------------------------
# the named predicates: stages of chromatic.profile
# ---------------------------------------------------------------------------


def _family_members(values):
    """The values so far start the paper's class profile."""
    return values == CLASS_PROFILE[: len(values)]


def _stability_gap(values):
    """chi >= max_degree/2 + 1 at the chi stage, ivs > vs at the ivs stage;
    the other two stages always pass."""
    if len(values) == 2:
        return 2 * values[1] >= values[0] + 2
    return len(values) < 4 or values[3] > values[2]


NAMED_PREDICATES = {
    "family-members": {
        "stages": ("max_degree=4", "chi=3", "vs=2", "ivs=3"),
        "fn": partial(profile, test=_family_members),
    },
    "stability-gap": {
        "stages": ("max_degree", "chi>=max_degree/2+1", "vs", "ivs>vs"),
        "fn": partial(profile, test=_stability_gap),
    },
}


def enumerate_catalog(spec: GenSpec, jobs=1) -> Catalog:
    """Run the generation spec and return the full catalog with reports."""
    spec.validate()
    t0 = time.perf_counter()
    level = levels_up_to(spec.n, spec.max_degree, jobs)
    total = len(level)
    funnel = {"classes": total}

    survivors = []
    if spec.connected_only:
        level = [
            (key, rows)
            for key, rows in level
            if Graph(len(rows), rows).is_connected()
        ]
        funnel["connected"] = len(level)

    if spec.predicate is None:
        survivors = level
    elif isinstance(spec.predicate, str):
        named = NAMED_PREDICATES[spec.predicate]
        stage_names = named["stages"]
        counts = [0] * (len(stage_names) + 1)
        for key, rows, (stage, _values) in records(level, named["fn"], jobs):
            counts[stage] += 1
            if stage == len(stage_names):
                survivors.append((key, rows))
        for i, name in enumerate(stage_names):
            funnel[name] = sum(counts[i + 1 :])
    else:
        survivors = [
            (key, rows)
            for key, rows in level
            if spec.predicate(Graph(len(rows), rows))
        ]
        funnel["predicate"] = len(survivors)

    # a level key is the canonical graph6 of its class
    entries = [
        CatalogEntry(key.decode(), analyze(graph6.decode(key))) for key, _rows in survivors
    ]
    entries.sort(key=lambda e: e.key)
    meta = {
        "spec": {
            "n": spec.n,
            "max_degree": spec.max_degree,
            "connected_only": spec.connected_only,
            "predicate": spec.predicate if isinstance(spec.predicate, str) else None,
        },
        "funnel": funnel,
        "entry_count": len(entries),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return Catalog(tuple(entries), meta)


# ---------------------------------------------------------------------------
# catalog relations and persistence
# ---------------------------------------------------------------------------


def edge_addition_links(cat: Catalog):
    """Ordered pairs (key_a, key_b) with b isomorphic to a plus one edge."""
    orders = {e.report.n for e in cat.entries}
    if len(orders) > 1:
        raise GenerateError("edge_addition_links needs a single-order catalog")
    keys = set(cat.keys())
    links = []
    for entry in cat.entries:
        g = graph6.decode(entry.key)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                child_key = iso.canonical_form(g.add_edges([(u, v)])).decode()
                if child_key in keys:
                    links.append((entry.key, child_key))
    return sorted(set(links))


def count_planar(cat: Catalog) -> int:
    return sum(1 for e in cat.entries if e.report.planar)


def write_catalog(cat: Catalog, path):
    """One line per entry: canonical graph6, tab, JSON report; metadata goes
    to a sidecar `<path>.meta.json`."""
    with open(path, "w") as fh:
        for e in cat.entries:
            fh.write(e.key)
            fh.write("\t")
            fh.write(json.dumps(e.report.to_dict(), separators=(",", ":")))
            fh.write("\n")
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(cat.meta, fh, indent=2, sort_keys=False)
        fh.write("\n")


def read_catalog(path) -> Catalog:
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, blob = line.partition("\t")
            entries.append(CatalogEntry(key, StabilityReport.from_dict(json.loads(blob))))
    meta = {}
    try:
        with open(f"{path}.meta.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    return Catalog(tuple(entries), meta)
