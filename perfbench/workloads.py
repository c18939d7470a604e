"""The three workloads: their seeded inputs, the timed calls, and the gates
that check every output.

Each workload runs in a fresh interpreter (see rep.py), so the package's
module caches (the level cache, the canonical-form cache) start empty in
every repetition.  A gate never raises: each check is one operation
attempted, and a check that does not hold is one operation failed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import resource
from contextlib import redirect_stdout
from time import perf_counter

import calibrate
from chromastab import chromatic, cli, generate, graph6, iso, kernels
from chromastab.graph import Graph, mask_of

# enumerate7: every class of order <= 7, unbounded degree, one job.
ENUMERATE_ORDER = 7
# sha256 of the sorted canonical graph6 strings of the 1,044 order-7 classes.
ENUMERATE_DIGEST = "7530fce5aacdfe26df4afb67bf68f0dd58c8536b00b1ae0a4852d502ade4ff75"

# search8: the flagship catalog run of the command-line tool, one order
# below the paper's order-9 search and with one job.  No order-8 graph
# passes the last stage, so the catalog is empty (sha256 of no bytes).
SEARCH_ARGS = ("search", "--n", "8", "--max-degree", "4", "--predicate", "family-members")
SEARCH_FUNNEL = (
    ("classes", 2590),
    ("max_degree=4", 2166),
    ("chi=3", 1787),
    ("vs=2", 891),
    ("ivs=3", 0),
    ("entries", 0),
)
SEARCH_LINES = 0
SEARCH_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# invariants: a seeded corpus fed one graph at a time to analyze() and
# min_color_class_size().  The tail latency is the 11th-slowest graph, and
# the slowest graphs are the few four-piece unions whose cost hangs on their
# random vertex order.  With 1,200 graphs each pattern recurs 24 times and
# the tail's quartiles over ten seeds lie about 4% apart; with 400 graphs
# they lay about 24% apart (pure backend, 2 vCPU Xeon 2.1 GHz).
INVARIANTS_SIZE = 1200
DEFAULT_SEED = 0
# sha256 of the reports for DEFAULT_SEED (see report_digest).
INVARIANTS_DIGEST = "4f4205e3faf17cb64bcbd480e0e90d94f2ee369d5e3985ca81b721aa6bc9dd23"


class Checks:
    """Operations attempted and the description of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def cpu_seconds():
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def instrument(tracer):
    """Trace calls into each module's public functions on the active backend."""
    kern = kernels.active()
    for name in (
        "canon_raw",
        "chromatic_number",
        "stability_values",
        "stability_witnesses",
        "min_color_class_size",
        "deletion_colorable",
    ):
        tracer.patch(kern, name, f"kernels.{name}")
    tracer.patch(iso, "canon_data", "iso.canon_data")
    tracer.patch(iso, "canonical_graph", "iso.canonical_graph")
    tracer.patch(iso, "is_planar", "iso.is_planar")
    tracer.patch(graph6, "encode_rows", "graph6.encode_rows")
    tracer.patch(Graph, "connectivity", "graph.Graph.connectivity")
    tracer.patch(chromatic, "analyze", "chromatic.analyze")
    # generate binds analyze by name at import
    tracer.patch(generate, "analyze", "chromatic.analyze")
    tracer.patch(chromatic, "bipartizing_pair_vertices", "chromatic.bipartizing_pair_vertices")
    tracer.patch(chromatic, "min_color_class_size", "chromatic.min_color_class_size")
    tracer.patch(generate, "levels_up_to", "generate.levels_up_to")
    tracer.patch(generate, "enumerate_catalog", "generate.enumerate_catalog")
    tracer.patch(generate, "write_catalog", "generate.write_catalog")
    # one span per parent expanded; the request id is the child order
    tracer.patch(
        generate,
        "_children_of",
        "generate.children_of",
        request_of=lambda task: task[0] + 1,
        count_of=len,
    )
    for named in generate.NAMED_PREDICATES.values():
        tracer.patch(named, "fn", "generate.funnel")


# ---------------------------------------------------------------------------
# enumerate7
# ---------------------------------------------------------------------------


def timed(fn, probe, blocks):
    """Run fn() once and time it: (result, wall_s, cpu_s, parts_ms, probes_s).

    With `blocks`, each parent expansion of the level generator is a timed
    part, and `probe` runs before every block of calibrate.BLOCK parts and
    once after the call; its own time is taken out of the wall and CPU
    times.  The expansions must run in this process (one job).  Without
    `blocks`, PROBES probes run right before and right after the call.
    """
    parts, marks = [], []
    expand = generate._children_of

    def timed_expand(task):
        if len(parts) % calibrate.BLOCK == 0:
            marks.append(probe())
        t0 = perf_counter()
        try:
            return expand(task)
        finally:
            parts.append(1000.0 * (perf_counter() - t0))

    if blocks:
        generate._children_of = timed_expand
    else:
        marks += [probe() for _ in range(calibrate.PROBES)]
    c0 = cpu_seconds()
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        generate._children_of = expand
    probing = sum(marks) if blocks else 0.0
    wall = perf_counter() - t0 - probing
    cpu = cpu_seconds() - c0 - probing
    marks += [probe() for _ in range(1 if blocks else calibrate.PROBES)]
    return result, wall, cpu, parts, marks


def run_enumerate(checks, tracer=None, blocks=True, order=ENUMERATE_ORDER,
                  digest=ENUMERATE_DIGEST):
    """levels_up_to(order) from cold, timed by timed(); gates on every
    level's class count and on the digest of the top level's canonical forms."""
    if tracer is None:
        call = lambda: generate.levels_up_to(order)  # noqa: E731
    else:
        def call():
            with tracer.span("workload", request=order):
                return generate.levels_up_to(order)
    level, wall, cpu, parts, marks = timed(call, calibrate.probe, blocks)
    if tracer is not None:
        tracer.unpatch()

    levels = generate.all_levels(order)
    for k in range(1, order + 1):
        got = len(levels[k])
        want = generate.KNOWN_CLASS_COUNTS.get(k)
        checks.expect(got == want, f"order {k}: {got} classes, expected {want}")
    got_digest = forms_digest(rows for _key, rows in level)
    checks.expect(got_digest == digest, f"order-{order} digest {got_digest}, expected {digest}")
    return {"wall_s": wall, "cpu_s": cpu, "items": len(level), "parts_ms": parts,
            "probes_s": marks, "blocks": blocks}


def forms_digest(rows_iter):
    forms = sorted(iso.canonical_form(Graph(len(rows), tuple(rows))) for rows in rows_iter)
    return hashlib.sha256(b"\n".join(forms)).hexdigest()


# ---------------------------------------------------------------------------
# search8
# ---------------------------------------------------------------------------


def run_search(checks, out_dir, tracer=None, blocks=True, args=SEARCH_ARGS,
               funnel=SEARCH_FUNNEL, lines=SEARCH_LINES, sha256=SEARCH_SHA256):
    """The command-line search with one job, in process, timed by timed();
    gates on the funnel lines it prints and on the catalog file it writes."""
    path = os.path.join(out_dir, f"catalog-{os.getpid()}.txt")
    argv = [*args, "--jobs", "1", "--output", path]
    printed = io.StringIO()

    def call():
        try:
            with redirect_stdout(printed):
                if tracer is None:
                    return cli.main(argv)
                with tracer.span("workload", request="catalog"):
                    return cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            checks.expect(False, f"search raised {exc!r}")
            return None

    code, wall, cpu, parts, marks = timed(call, calibrate.probe, blocks)
    if tracer is not None:
        tracer.unpatch()

    checks.expect(code == 0, f"search exit code {code}")
    stages = dict(line.split("\t", 1) for line in printed.getvalue().splitlines() if "\t" in line)
    for stage, want in funnel:
        got = stages.get(stage)
        checks.expect(got == str(want), f"funnel {stage}: {got}, expected {want}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        data = b""
        checks.expect(False, f"catalog unreadable: {exc}")
    finally:
        for leftover in (path, f"{path}.meta.json"):
            if os.path.exists(leftover):
                os.remove(leftover)
    got_lines = data.count(b"\n")
    checks.expect(got_lines == lines, f"catalog has {got_lines} lines, expected {lines}")
    got_sha = hashlib.sha256(data).hexdigest()
    checks.expect(got_sha == sha256, f"catalog sha256 {got_sha}, expected {sha256}")
    items = int(stages.get("classes", 0) or 0)
    return {"wall_s": wall, "cpu_s": cpu, "items": items, "parts_ms": parts,
            "probes_s": marks, "blocks": blocks}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def corpus(seed, size=INVARIANTS_SIZE):
    """Half G(n, p) with 12 <= n <= 16 and 0.25 <= p <= 0.6; half disjoint
    unions of 3 or 4 dense components (K3, K4 minus an edge, K4), in random
    vertex order.  The two kinds alternate.

    The mix is stratified so that seeds differ only in the random draws: the
    (n, p) cells of G(n, p) and the component patterns of the unions are
    cycled in a fixed order, and the seed draws the edges and vertex orders.
    Per-graph cost depends mostly on (n, p) and on the components, so a
    stratified mix keeps the corpus cost from swinging with the seed.
    """
    rng = random.Random(seed)
    cells = [(n, p / 100) for n in range(12, 17) for p in range(25, 61, 5)]
    patterns = [
        combo
        for k in (3, 4)
        for combo in itertools.combinations_with_replacement(_DENSE_PIECES, k)
    ]
    graphs = []
    for i in range(size):
        if i % 2 == 0:
            n, p = cells[(i // 2) % len(cells)]
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        else:
            edges = []
            n = 0
            for piece in patterns[(i // 2) % len(patterns)]:
                edges += [(n + u, n + v) for u, v in piece]
                n += 1 + max(max(e) for e in piece)
            order = list(range(n))
            rng.shuffle(order)
            edges = [(order[u], order[v]) for u, v in edges]
        graphs.append(Graph.build(n, edges))
    return graphs


_K4 = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
_DENSE_PIECES = (_K4[:3], _K4[:5], _K4)  # K3, K4 minus an edge, K4


def run_invariants(checks, graphs, tracer=None, digest=None, probe=None):
    """analyze(g) then min_color_class_size(g) for one graph at a time.

    Every output is checked after the timed loop: analyze raised none of
    its assertions, the minimum colour-class size equals ivs, and deleting
    each witness lowers the chromatic number by exactly one.  With `digest`
    set, the reports must hash to it.  With `probe` set, it runs untimed
    before every block of calibrate.BLOCK graphs and after the last one.
    """
    results = []
    parts = []
    probes = []
    wall = 0.0
    cpu = 0.0
    for index, g in enumerate(graphs):
        if probe is not None and index % calibrate.BLOCK == 0:
            probes.append(probe())
        c0 = cpu_seconds()
        t0 = perf_counter()
        try:
            if tracer is None:
                results.append((chromatic.analyze(g), chromatic.min_color_class_size(g)))
            else:
                with tracer.span("workload", request=index):
                    results.append((chromatic.analyze(g), chromatic.min_color_class_size(g)))
        except Exception as exc:  # counted below as a failed graph
            results.append(exc)
        dt = perf_counter() - t0
        cpu += cpu_seconds() - c0
        wall += dt
        parts.append(1000.0 * dt)
    if probe is not None:
        probes.append(probe())
    if tracer is not None:
        tracer.unpatch()

    for index, (g, result) in enumerate(zip(graphs, results)):
        checks.expect(check_graph(g, result), f"graph {index} ({graph6.encode(g)}): {result!r}"[:300])
    if digest is not None:
        got = report_digest(results)
        checks.expect(got == digest, f"report digest {got}, expected {digest}")
    return {"wall_s": wall, "cpu_s": cpu, "items": len(graphs), "parts_ms": parts,
            "probes_s": probes, "blocks": probe is not None}


def check_graph(g, result):
    if isinstance(result, Exception):
        return False
    report, mcc = result
    if mcc != report.independent_vertex_stability:
        return False
    chi = report.chromatic_number
    for witnesses in (report.vertex_stability_witnesses, report.independent_stability_witnesses):
        for w in witnesses:
            if chromatic.chromatic_number(g.delete_vertices(mask_of(w))) != chi - 1:
                return False
    return True


def report_digest(results):
    h = hashlib.sha256()
    for result in results:
        if isinstance(result, Exception):
            h.update(b"error\n")
            continue
        report, mcc = result
        h.update(json.dumps([report.to_dict(), mcc], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()
