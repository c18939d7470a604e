"""Isomorph-free exhaustive generation of small graphs by canonical augmentation.

Each level extends every parent by one new vertex attached to every
admissible neighbor subset; a child is accepted only when the new vertex
lies in the automorphism orbit of the canonically last vertex (McKay 1998,
"Isomorph-free exhaustive generation").  Distinct parents then never produce
isomorphic accepted children, so a per-parent key dedup suffices and the
output is independent of scheduling.  A class's key is `iso.canon_data`'s
graph6 key, the canonical graph6 bytes that catalogs and
`iso.canonical_form` use too.

A parent is expanded by one kernel call, `children` on the active backend
(see `kernels.pure.children`), after one `iso.canon_data` call on the parent
for its automorphism generators.  Two reductions skip canonical labeling
whose answer is already known; both leave every level's keys and
representatives unchanged:

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

A child that passes the pre-test keeps the parent components that the new
vertex misses, so only the new vertex's piece is labeled, by one
`canon_raw` call; a connected child is the one-piece case, labeled whole.
Each untouched component is labeled once per parent and its canonical rows
are reused.  The graph6 key is built only for an accepted child, from the
pieces' canonical rows, as `iso.canon_data` builds it.

On the pure backend each piece is labeled once per pair of levels.
`_children_of` opens `pure._reusing_labelings` around its two labeling
calls; there `pure.canon_raw` returns the labeling kept in the pure
labeling table for the same rows instead of searching again.  `all_levels`
fills a fresh table while it builds a level (`pure._filling_labelings`),
and the table replaces the old one when the level is complete, so it holds
the labelings made while the last held level was built: the parents'
components of the next expansion, and many of its new vertices' pieces.
The streamed top order of `walk` reads the table but fills nothing.  The
table memoizes a pure function, so it changes no output, and it is filled
the same way at every job count.

Scans read whole orders through `walk`: `all_levels` sorts and caches the
levels below the top order, and `sweep` streams the top order parent by
parent, each class with its record (such as `chromatic.profile`) computed
where it is generated, holding one parent's children plus the keys seen so
far for the cross-parent duplicate check.  `check_order`, which every level
build calls first, bounds the order.

Held levels are built and walked in this process; only `sweep`'s `_pmap`
runs the top order's parents in a process pool, when `jobs` leaves more
than one worker, and imports `concurrent.futures` only then (the pool pulls
in multiprocessing, pickle, socket and subprocess).  No pool starts while a
table is being filled.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import partial

from chromastab import graph6, iso, kernels
from chromastab.chromatic import StabilityReport, analyze, profile
from chromastab.graph import Graph
from chromastab.kernels import pure

KNOWN_CLASS_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668,
}


class GenerateError(ValueError):
    pass


def check_order(n, max_degree=None):
    """Refuse an order below 1, and one whose level may outgrow order 9's
    274,668 classes: order 10 is admitted only with max_degree <= 4 (108,376
    classes; max_degree 5 gives at least labeled_count(10, 5)/10! =
    1,001,343).  Every level build checks it before any work."""
    if n < 1:
        raise GenerateError(f"order must be at least 1, got {n}")
    if n > 9 and not (n == 10 and max_degree is not None and max_degree <= 4):
        raise GenerateError(f"the level sweeps stop at order 9, got {n}")


@dataclass(frozen=True)
class GenSpec:
    """What to enumerate: order, optional degree bound, optional filters.

    `predicate` is None or the name of one of the NAMED_PREDICATES
    ("family-members", "stability-gap").
    """

    n: int
    max_degree: int | None = None
    connected_only: bool = False
    predicate: object = None

    def validate(self):
        check_order(self.n, self.max_degree)
        if self.max_degree is not None and not 0 <= self.max_degree <= self.n - 1:
            raise GenerateError(f"max_degree {self.max_degree} outside 0..n-1")
        if self.predicate not in (None, *NAMED_PREDICATES):
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
    key being the child's canonical graph6 bytes.  One `iso.canon_data` call
    gives the parent's automorphism generators, and the kernel's `children`
    does the rest."""
    n, rows, max_degree = task
    with pure._reusing_labelings():
        gens = iso.canon_data(n, rows).generators
        return kernels.active().children(n, rows, max_degree, gens)


def _pmap(fn, tasks, jobs):
    """Yield fn(task) for every task, in task order.

    The pool starts at most one worker per task and per usable CPU, and
    none at all when that leaves a single worker.
    """
    workers = min(jobs, len(tasks), default_jobs())
    if workers <= 1:
        for task in tasks:
            yield fn(task)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks, chunksize=16)


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


_LEVEL_CACHE = {}


def all_levels(n, max_degree=None):
    """{order: sorted list of (graph6 key, rows)} for every order 1..n, one
    representative per isomorphism class (respecting the degree bound).
    Levels are built in-process, cached per max_degree, extended on demand."""
    check_order(n, max_degree)
    k1 = (graph6.encode_rows(1, (0,)).encode(), (0,))
    levels = _LEVEL_CACHE.setdefault(max_degree, {1: [k1]})
    for k in range(1, n):
        if k + 1 not in levels:
            with pure._filling_labelings():
                children = sweep(levels[k], max_degree)
                levels[k + 1] = sorted((key, rows) for key, rows, _ in children)
    return {k: levels[k] for k in range(1, n + 1)}


def levels_up_to(n, max_degree=None):
    """One representative of every isomorphism class of order exactly n
    (respecting the degree bound), as a sorted list of (graph6 key, rows),
    built in this process."""
    return all_levels(n, max_degree)[n]


def walk(n, max_degree=None, fn=None, jobs=1, first=1):
    """Yield (order, key, rows, fn(rows), or None without fn) for every class
    of orders first..n (respecting the degree bound), order by order.  An
    order below n is a held level, in key order, with fn applied in this
    process; order n > 1 is streamed by `sweep` from level n - 1, never held,
    in a pool when jobs > 1.  The order is checked before order 1 is yielded."""
    check_order(n, max_degree)
    for order in range(first, n + 1):
        if order < n or order == 1:
            level = levels_up_to(order, max_degree)
            classes = ((key, rows, None if fn is None else fn(rows)) for key, rows in level)
        else:
            classes = sweep(levels_up_to(n - 1, max_degree), max_degree, fn, jobs)
        for key, rows, value in classes:
            yield order, key, rows, value


# ---------------------------------------------------------------------------
# the named predicates: stages of chromatic.profile
# ---------------------------------------------------------------------------


# Each predicate is chromatic.profile under the stage rule of its name, which
# the profile kernel of each backend applies: "family-members" passes the
# values that start the paper's class profile, and "stability-gap" requires
# chi >= max_degree/2 + 1 at the chi stage and ivs > vs at the ivs stage.
# "stages" names the four stages, for the funnel.
NAMED_PREDICATES = {
    "family-members": {
        "stages": ("max_degree=4", "chi=3", "vs=2", "ivs=3"),
        "fn": partial(profile, rule="family-members"),
    },
    "stability-gap": {
        "stages": ("max_degree", "chi>=max_degree/2+1", "vs", "ivs>vs"),
        "fn": partial(profile, rule="stability-gap"),
    },
}


def _funnel_stage(connected_only, fn, rows):
    """Stages of fn passed (0 without fn); -1 if connected_only drops rows."""
    if connected_only and not Graph(len(rows), rows).is_connected():
        return -1
    return 0 if fn is None else fn(rows)[0]


def enumerate_catalog(spec: GenSpec, jobs=1) -> Catalog:
    """Run the generation spec and return the full catalog with reports."""
    spec.validate()
    t0 = time.perf_counter()
    named = NAMED_PREDICATES.get(spec.predicate, {"stages": (), "fn": None})
    fn = partial(_funnel_stage, spec.connected_only, named["fn"])
    counts = [0] * (len(named["stages"]) + 2)  # by stage; dropped classes last
    survivors = []
    for _order, key, _rows, stage in walk(spec.n, spec.max_degree, fn, jobs, first=spec.n):
        counts[stage] += 1
        if stage == len(named["stages"]):
            survivors.append(key)
    funnel = {"classes": sum(counts)}
    if spec.connected_only:
        funnel["connected"] = sum(counts[:-1])
    for i, name in enumerate(named["stages"]):
        funnel[name] = sum(counts[i + 1 : -1])

    # a level key is the canonical graph6 of its class
    entries = [
        CatalogEntry(key.decode(), analyze(graph6.decode(key))) for key in survivors
    ]
    entries.sort(key=lambda e: e.key)
    meta = {
        "spec": {
            "n": spec.n,
            "max_degree": spec.max_degree,
            "connected_only": spec.connected_only,
            "predicate": spec.predicate,
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
