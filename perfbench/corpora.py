"""Time per kernel call on fixed corpora, on every backend that imports.

The corpora:
  order7     -- all 1,044 graphs of order 7;
  complete   -- K_n for n <= 8 and K_{p,p} for p <= 4 (canonical labeling
                visits every automorphism, so its cost grows with |Aut|);
  triangles  -- k disjoint triangles for k <= 6 (the stability scan grows
                exponentially with vs);
  mcc_k3_first, mcc_k5_first
             -- one labelling pair for min_color_class_size: 4K3 followed
                by K5, and the same graph with K5 first.

Every backend must return the same outputs; a difference is a failed check.
Metrics are those of the active backend; the other backends' times are
returned alongside for the record.
"""

from __future__ import annotations

from time import perf_counter

from chromastab import generate, kernels
from chromastab.graph import Graph, complete_bipartite, complete_graph


def _disjoint(*graphs):
    edges = []
    n = 0
    for g in graphs:
        edges += [(n + u, n + v) for u, v in g.edges()]
        n += g.n
    return Graph.build(n, edges)


def build():
    """{corpus name: list of (n, rows)}."""
    order7 = [rows for _key, rows in generate.levels_up_to(7)]
    k3, k5 = complete_graph(3), complete_graph(5)
    return {
        "order7": [(len(rows), rows) for rows in order7],
        "complete": [(g.n, g.rows) for g in
                     [complete_graph(n) for n in range(1, 9)]
                     + [complete_bipartite(p, p) for p in range(1, 5)]],
        "triangles": [(g.n, g.rows) for g in (_disjoint(*[k3] * k) for k in range(1, 7))],
        "mcc_k3_first": [(g.n, g.rows) for g in [_disjoint(k3, k3, k3, k3, k5)]],
        "mcc_k5_first": [(g.n, g.rows) for g in [_disjoint(k5, k3, k3, k3, k3)]],
    }


# kernel name -> call on (backend, n, rows, chi)
CALLS = {
    "chromatic_number": lambda kern, n, rows, chi: kern.chromatic_number(n, rows),
    "canon_raw": lambda kern, n, rows, chi: kern.canon_raw(n, rows),
    "stability_values": lambda kern, n, rows, chi: kern.stability_values(n, rows, chi),
    "min_color_class_size": lambda kern, n, rows, chi: kern.min_color_class_size(n, rows, chi),
}


# (corpus, kernel) pairs that are timed
PLAN = (
    ("order7", "chromatic_number"),
    ("order7", "stability_values"),
    ("order7", "min_color_class_size"),
    ("order7", "canon_raw"),
    ("complete", "canon_raw"),
    ("triangles", "stability_values"),
    ("mcc_k3_first", "min_color_class_size"),
    ("mcc_k5_first", "min_color_class_size"),
)


def measure(checks):
    """(metrics of the active backend, {backend: {corpus.kernel: stats}})."""
    corpora = build()
    active = kernels.backend_name()
    backends = ["pure"] + (["compiled"] if kernels.have_compiled() else [])
    chis = {name: [kernels.pure.chromatic_number(n, r) for n, r in graphs]
            for name, graphs in corpora.items()}
    timings = {}
    outputs = {}
    try:
        for backend in backends:
            kern = kernels.set_backend(backend)
            timings[backend] = {}
            for corpus, kernel in PLAN:
                call = CALLS[kernel]
                times = []
                results = []
                for (n, rows), chi in zip(corpora[corpus], chis[corpus]):
                    t0 = perf_counter()
                    results.append(call(kern, n, rows, chi))
                    times.append(perf_counter() - t0)
                timings[backend][f"{corpus}.{kernel}"] = {
                    "calls": len(times),
                    "ms": 1000.0 * sum(times) / len(times),
                    "max_ms": 1000.0 * max(times),
                }
                outputs.setdefault((corpus, kernel), {})[backend] = results
    finally:
        kernels.set_backend("auto")
    for (corpus, kernel), by_backend in outputs.items():
        reference = by_backend["pure"]
        for backend, results in by_backend.items():
            checks.expect(results == reference, f"{backend} {kernel} differs from pure on {corpus}")

    t = timings[active]
    metrics = {
        "corpus.backends": len(backends),
        "corpus.order7.chromatic_number.ms": t["order7.chromatic_number"]["ms"],
        "corpus.order7.stability_values.ms": t["order7.stability_values"]["ms"],
        "corpus.order7.min_color_class_size.ms": t["order7.min_color_class_size"]["ms"],
        "corpus.order7.canon_raw.ms": t["order7.canon_raw"]["ms"],
        "corpus.complete.canon_raw.ms": t["complete.canon_raw"]["ms"],
        "corpus.complete.canon_raw.max_ms": t["complete.canon_raw"]["max_ms"],
        "corpus.triangles.stability_values.ms": t["triangles.stability_values"]["ms"],
        "corpus.triangles.stability_values.max_ms": t["triangles.stability_values"]["max_ms"],
        "corpus.mcc_order.k3_first_ms": t["mcc_k3_first.min_color_class_size"]["ms"],
        "corpus.mcc_order.k5_first_ms": t["mcc_k5_first.min_color_class_size"]["ms"],
    }
    return metrics, timings
