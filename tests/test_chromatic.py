import importlib
import random
from pathlib import Path

import pytest

from chromastab import chromatic, families, generate, graph, iso, kernels, oracles
from chromastab.chromatic import ChromaticError
from chromastab.graph import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    mask_of,
    path_graph,
)


def order_classes(n):
    """Representatives of every order-n isomorphism class, via the brute
    canonical key (independent of the production enumerator)."""
    seen = set()
    for g in oracles.all_labeled_graphs(n):
        key, _aut = oracles.brute_canonical_key(g)
        if key not in seen:
            seen.add(key)
            yield Graph(n, key)


def test_colorability_examples():
    c5 = cycle_graph(5)
    assert chromatic.is_k_colorable(c5, 2) is None
    col = chromatic.is_k_colorable(c5, 3)
    assert col is not None and col.k == 3
    assert chromatic.is_k_colorable(Graph.build(0, []), 0).colors == ()


def test_chromatic_number_examples():
    assert chromatic.chromatic_number(complete_graph(4)) == 4
    assert chromatic.chromatic_number(cycle_graph(6)) == 2
    assert chromatic.chromatic_number(Graph.build(0, [])) == 0
    assert chromatic.chromatic_number(Graph.build(3, [])) == 1


def test_coloring_validation():
    with pytest.raises(ChromaticError):
        chromatic.Coloring.from_colors(complete_graph(2), (0, 0))
    with pytest.raises(ChromaticError):
        chromatic.Coloring.from_colors(complete_graph(2), (0, 2))
    col = chromatic.Coloring.from_colors(complete_graph(2), (1, 0))
    assert col.classes() == (0b10, 0b01)


def test_vertex_stability_k3():
    value, witnesses = chromatic.vertex_stability(complete_graph(3))
    assert value == 1
    assert witnesses == (0b001, 0b010, 0b100)


def test_stability_of_null_graph_is_an_error():
    with pytest.raises(ChromaticError):
        chromatic.vertex_stability(Graph.build(0, []))
    with pytest.raises(ChromaticError):
        chromatic.min_color_class_size(Graph.build(0, []))
    with pytest.raises(ChromaticError):
        chromatic.profile(())


def test_edgeless_graph_stability_is_n():
    g = Graph.build(4, [])
    assert chromatic.profile(g.rows)[1] == (0, 1, 4, 4)
    value, witnesses = chromatic.vertex_stability(g)
    assert value == 4 and witnesses == (0b1111,)


def test_even_cycle_stability():
    assert chromatic.profile(cycle_graph(8).rows)[1] == (2, 2, 4, 4)
    assert chromatic.independent_vertex_stability(cycle_graph(8)).value == 4


def test_min_color_class_size_examples():
    assert chromatic.min_color_class_size(complete_graph(3)) == 1
    assert chromatic.min_color_class_size(cycle_graph(6)) == 3


def test_bipartizing_pairs_of_c5():
    assert chromatic.bipartizing_pair_vertices(cycle_graph(5)) == 0b11111


def _bipartizing_over_ordered_pairs(g):
    return mask_of(
        x
        for x in range(g.n)
        if any(
            chromatic.chromatic_number(g.delete_vertices(1 << x | 1 << y)) == 2
            for y in range(g.n)
            if y != x
        )
    )


def wheel(spokes):
    """A hub joined to every vertex of a cycle; 4-chromatic for odd cycles."""
    return Graph.build(spokes + 1, [(i, (i + 1) % spokes) for i in range(spokes)]
                       + [(i, spokes) for i in range(spokes)])


def test_bipartizing_pairs_match_the_ordered_pair_definition():
    levels = generate.all_levels(6)
    graphs = [Graph(n, rows) for n in levels for _key, rows in levels[n]]
    graphs += [families.g9(), families.g10()]
    graphs += [complete_graph(5), complete_graph(6), wheel(5), Graph.build(4, []),
               complete_graph(2)]
    for g in graphs:
        assert chromatic.bipartizing_pair_vertices(g) == _bipartizing_over_ordered_pairs(g), g.rows
    assert chromatic.chromatic_number(wheel(5)) == 4
    assert chromatic.bipartizing_pair_vertices(wheel(5)) == 0b111111


def counting_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list of its calls' args."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_bipartizing_pairs_call_the_kernel_at_most_once_per_pair(pure_backend, monkeypatch):
    calls = counting_calls(monkeypatch, kernels.pure, "deletion_colorable")
    pair_calls = counting_calls(monkeypatch, kernels.pure, "bipartizing_pairs")
    for g in (families.g9(), complete_graph(5), complete_graph(6)):
        assert chromatic.bipartizing_pair_vertices(g) == _bipartizing_over_ordered_pairs(g)
        assert len(calls) <= g.n * (g.n - 1) // 2
        # one kernel call tests every pair
        assert pair_calls == [(g.n, g.rows)]
        calls.clear()
        pair_calls.clear()
    # analyze knows chi, and skips the pairs when chi >= 5
    for g in (complete_graph(5), complete_graph(6)):
        assert chromatic.analyze(g).bipartizing_pair_vertices == ()
    assert calls == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_analyze_bipartizing_pairs_match_the_ordered_pair_definition(monkeypatch):
    """The bipartizing lemma: analyze's mask, read off the vs scan where
    chi = 3 and vs >= 2, is the ordered-pair definition everywhere."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    levels = generate.all_levels(7)
    graphs = [Graph(n, rows) for n in levels for _key, rows in levels[n]]
    graphs += [families.g9(), families.g10(), wheel(5)]
    graphs += workloads.corpus(3, 300)
    lemma = 0
    for g in graphs:
        rep = chromatic.analyze(g)
        want = _bipartizing_over_ordered_pairs(g)
        assert rep.bipartizing_pair_vertices == tuple(bits(want)), g.rows
        lemma += rep.chromatic_number == 3 and rep.vertex_stability >= 2
    # 285 of the 1,555 graphs take the lemma's path
    assert lemma == 285


def test_analyze_calls_the_pair_kernel_only_where_the_lemma_leaves_it_open(
    pure_backend, monkeypatch
):
    calls = counting_calls(monkeypatch, kernels.pure, "bipartizing_pairs")
    for g, count in [(families.g9(), 0), (complete_graph(5), 0), (wheel(5), 1)]:
        chromatic.analyze(g)
        assert len(calls) == count, g.rows
        calls.clear()


def test_analyze_derives_ivs_from_the_vs_scan(pure_backend, monkeypatch):
    """One witness scan per top component when some vs-witness is
    independent; the independent scan only where ivs > vs."""
    calls = counting_calls(monkeypatch, kernels.pure, "stability_witnesses")
    k4 = complete_graph(4)
    two_k4 = Graph.build(8, k4.edges() + [(u + 4, v + 4) for u, v in k4.edges()])
    for g, scans, values in [
        (cycle_graph(5), [False], (1, 1)),
        (two_k4, [False, False], (2, 2)),
        (families.g9(), [False, True], (2, 3)),
    ]:
        rep = chromatic.analyze(g)
        assert [args[3] for args in calls] == scans
        assert (rep.vertex_stability, rep.independent_vertex_stability) == values
        calls.clear()


def test_analyze_small_graphs():
    rep = chromatic.analyze(Graph.build(1, []))
    assert (rep.chromatic_number, rep.vertex_stability, rep.independent_vertex_stability) == (1, 1, 1)
    rep = chromatic.analyze(cycle_graph(7))
    assert (rep.chromatic_number, rep.vertex_stability, rep.independent_vertex_stability) == (3, 1, 1)
    assert rep.planar and rep.connected and rep.two_connected


def test_stability_scans_reject_more_than_62_vertices(pure_backend):
    g = path_graph(63)
    with pytest.raises(ValueError, match="at most 62 vertices"):
        chromatic.vertex_stability(g)
    with pytest.raises(ValueError, match="at most 62 vertices"):
        chromatic.profile(g.rows)


def test_report_roundtrip():
    rep = chromatic.analyze(cycle_graph(5))
    back = chromatic.StabilityReport.from_dict(rep.to_dict())
    assert back == rep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_against_brute_force_small(n):
    for g in order_classes(n):
        chi = chromatic.chromatic_number(g)
        assert chi == oracles.brute_chromatic_number(g)
        if chi == 0:
            continue
        vs, vs_wit = chromatic.vertex_stability(g)
        ivs, ivs_wit = chromatic.independent_vertex_stability(g)
        bvs, bwit = oracles.brute_stability(g)
        bivs, biwit = oracles.brute_stability(g, independent_only=True)
        assert (vs, vs_wit) == (bvs, bwit)
        assert (ivs, ivs_wit) == (bivs, biwit)
        assert vs <= ivs
        assert g.n >= ivs * chi
        assert chromatic.min_color_class_size(g) == ivs


def test_witnesses_lower_chi_by_exactly_one():
    for g in [cycle_graph(5), cycle_graph(9), complete_graph(4), path_graph(6)]:
        chi = chromatic.chromatic_number(g)
        value, witnesses = chromatic.vertex_stability(g)
        for w in witnesses:
            assert chromatic.chromatic_number(g.delete_vertices(w)) == chi - 1
        # nothing smaller works
        for smaller in range(1, value):
            from itertools import combinations

            for combo in combinations(range(g.n), smaller):
                sub = g.delete_vertices(mask_of(combo))
                assert chromatic.chromatic_number(sub) != chi - 1


def test_independent_witnesses_are_independent():
    g = cycle_graph(8)
    _, witnesses = chromatic.independent_vertex_stability(g)
    for w in witnesses:
        assert all(g.rows[v] & w == 0 for v in bits(w))


_K4 = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
_DENSE_PIECES = ((3, _K4[:3]), (4, _K4[:5]), (4, _K4))  # K3, K4 minus an edge, K4


def _random_piece(rng, kind):
    """(size, edges) of one component-like piece; a G(n, p) piece may itself
    be disconnected."""
    if kind == "path":
        size = rng.randint(2, 4)
        return size, tuple((i, i + 1) for i in range(size - 1))
    if kind == "dense":
        return rng.choice(_DENSE_PIECES)
    size = rng.randint(2, 4)
    p = rng.choice((0.4, 0.7, 1.0))
    return size, tuple((u, v) for v in range(size) for u in range(v) if rng.random() < p)


def random_union(rng, max_n=11):
    """A disjoint union on at most max_n vertices in shuffled vertex order:
    an edgeless graph, or paths, K3 / K4-e / K4 or G(n, p) pieces with
    isolated vertices mixed in."""
    kind = rng.choice(("edgeless", "path", "dense", "gnp"))
    pieces = []
    if kind != "edgeless":
        for _ in range(rng.randint(1, 4)):
            pieces.append(_random_piece(rng, kind))
    pieces += [(1, ())] * rng.randint(0 if pieces else 1, 3)
    rng.shuffle(pieces)
    edges, n = [], 0
    for size, piece in pieces:
        if n + size > max_n:
            continue
        edges += [(n + u, n + v) for u, v in piece]
        n += size
    order = list(range(n))
    rng.shuffle(order)
    return Graph.build(n, [(order[u], order[v]) for u, v in edges])


def test_component_reduction_matches_whole_graph_scans():
    """The chromatic-layer entry points split a graph into components; they
    must return exactly what the active kernels return on the whole graph,
    witness order included."""
    kern = kernels.active()
    rng = random.Random(5)
    disconnected = 0
    for _ in range(400):
        g = random_union(rng)
        disconnected += not g.is_connected()
        chi = kern.chromatic_number(g.n, g.rows)
        vs = kern.stability_witnesses(g.n, g.rows, chi, False)
        ivs = kern.stability_witnesses(g.n, g.rows, chi, True)
        assert chromatic.vertex_stability(g) == vs
        assert chromatic.independent_vertex_stability(g) == ivs
        assert chromatic.profile(g.rows, mcc=True)[1] == whole_graph_profile(kern, g.n, g.rows)
        assert chromatic.min_color_class_size(g) == kern.min_color_class_size(g.n, g.rows, chi)
        rep = chromatic.analyze(g)
        assert rep.chromatic_number == chi
        assert (rep.vertex_stability, rep.independent_vertex_stability) == (vs[0], ivs[0])
        assert rep.vertex_stability_witnesses == tuple(tuple(bits(w)) for w in vs[1])
        assert rep.independent_stability_witnesses == tuple(tuple(bits(w)) for w in ivs[1])
        if g.n <= 7:
            assert vs == oracles.brute_stability(g)
            assert ivs == oracles.brute_stability(g, independent_only=True)
    assert disconnected >= 300


def whole_graph_profile(kern, n, rows):
    """(max degree, chi, vs, ivs, mcc) from the kernels on the whole graph."""
    chi = kern.chromatic_number(n, rows)
    return (max((r.bit_count() for r in rows), default=0), chi,
            *kern.stability_values(n, rows, chi), kern.min_color_class_size(n, rows, chi))


def test_profile_of_every_class_through_order_7_matches_whole_graph_kernels():
    assert chromatic.profile(families.g9().rows) == (4, chromatic.CLASS_PROFILE)
    assert chromatic.CLASS_PROFILE == (4, 3, 2, 3)
    kern = kernels.active()
    levels = generate.all_levels(7)
    for n in levels:
        for _key, rows in levels[n]:
            assert chromatic.profile(rows, mcc=True) == (4, whole_graph_profile(kern, n, rows))
            assert chromatic.profile(rows) == (4, whole_graph_profile(kern, n, rows)[:4])


def star(leaves):
    return Graph.build(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def test_pure_profile_stops_at_the_first_stage_its_rule_rejects(monkeypatch):
    """pure.profile reads the rows once, and a stage that its rule rejects
    ends it with (s, values[:s+1]): no helper of a later stage is called.
    Stage 1 (chi) takes one _top_components call, stages 2 and 3 (vs and
    ivs) one _stability_values call per top component, and the minimum
    class size one _min_class_size call per top component."""
    helpers = {name: counting_calls(monkeypatch, kernels.pure, name)
               for name in ("_load", "_top_components", "_stability_values",
                            "_min_class_size")}
    k3, k5 = complete_graph(3), complete_graph(5)
    wheel4 = Graph.build(5, cycle_graph(4).edges() + [(v, 4) for v in range(4)])
    # 2K3 + K_{1,4}: (4, 3, 2, 2), the two triangles being the top components
    two_k3_star = Graph.build(11, k3.edges() + [(u + 3, v + 3) for u, v in k3.edges()]
                              + [(6 + u, 6 + v) for u, v in star(4).edges()])
    # (graph, number of top components, the stage that family-members and
    # stability-gap stop at)
    cases = [
        (cycle_graph(5), 1, 0, 3),
        (k5, 1, 1, 3),
        (star(4), 1, 1, 1),
        (wheel4, 1, 2, 3),
        (two_k3_star, 2, 3, 3),
        (families.g9(), 1, 4, 4),
    ]
    for g, ntop, *stops in cases:
        want = chromatic.profile(g.rows, mcc=True)[1]
        for rule, stop in zip((None, "family-members", "stability-gap"), [4] + stops):
            for mcc in (False, True):
                for calls in helpers.values():
                    calls.clear()
                got = kernels.pure.profile(g.n, g.rows, rule, mcc)
                assert got == (stop, want[: stop + 1 if stop < 4 else 4 + mcc]), (g.rows, rule)
                made = {name: len(calls) for name, calls in helpers.items()}
                assert made == {
                    "_load": 1,
                    "_top_components": int(stop >= 1),
                    "_stability_values": ntop * (stop >= 2),
                    "_min_class_size": ntop * (stop == 4 and mcc),
                }, (g.rows, rule, mcc)


PROFILE_RULES = (None, "family-members", "stability-gap")


def stage_loop_profile(kern, rows, rule, mcc):
    """chromatic.profile as a Python stage loop over whole kernel calls:
    top_components, then stability_values and min_color_class_size on each
    top component relabeled, with the stage rules as predicates."""

    def passes(values):
        if rule == "family-members":
            return values == chromatic.CLASS_PROFILE[: len(values)]
        if rule == "stability-gap" and len(values) == 2:
            return 2 * values[1] >= values[0] + 2
        return rule != "stability-gap" or len(values) < 4 or values[3] > values[2]

    n = len(rows)
    values = (max(map(int.bit_count, rows), default=0),)
    for stage in range(4):
        if stage == 1:
            chi, masks = kern.top_components(n, rows)
            top = [graph.induced(rows, mask)[1] for mask in masks]
            values += (chi,)
        elif stage == 2:
            vs = ivs = 0
            for crows in top:
                v, i = kern.stability_values(len(crows), crows, chi)
                vs, ivs = vs + v, ivs + i
            values += (vs, ivs)
        if not passes(values[: stage + 1]):
            return stage, values[: stage + 1]
    if mcc:
        values += (sum(kern.min_color_class_size(len(c), c, chi) for c in top),)
    return 4, values


def test_profile_kernel_matches_the_stage_loop_through_order_8(backend, levels_through_8):
    """Every class of orders 1..8, under every rule, with and without the
    minimum class size: the profile kernel gives what the stage loop over
    the same backend's whole kernels gives."""
    stops = set()
    for n, level in levels_through_8.items():
        for _key, rows in level:
            for rule in PROFILE_RULES:
                for mcc in (False, True):
                    got = backend.profile(n, rows, rule, mcc)
                    assert got == stage_loop_profile(backend, rows, rule, mcc), (rows, rule)
                    stops.add((rule, got[0]))
    # no class below order 9 passes either rule (lem9), and every stage
    # that a rule can stop at is reached
    assert stops == {(None, 4), *(("family-members", s) for s in range(4)),
                     ("stability-gap", 1), ("stability-gap", 3)}


def test_profile_early_stop_shows_through_the_62_vertex_limit(backend):
    """The scans refuse a top component of more than 62 vertices, so a
    profile raises exactly when it reaches the vs stage on one."""
    g63 = families.g_n(63)
    assert g63.is_connected() and g63.max_degree == 4
    for rule in PROFILE_RULES:
        with pytest.raises(ValueError, match="^stability scans support at most 62 vertices$"):
            backend.profile(63, g63.rows, rule, False)
    # one more edge: max degree 5, and chi stays 3
    g = g63.add_edges([(0, 2)])
    assert g.max_degree == 5
    assert backend.profile(63, g.rows, "family-members", True) == (0, (5,))
    assert backend.profile(63, g.rows, "stability-gap", True) == (1, (5, 3))
    with pytest.raises(ValueError, match="at most 62 vertices"):
        backend.profile(63, g.rows, None, False)
    # the limit is per top component: g9 and 54 isolated vertices
    g9 = Graph.build(63, families.g9().edges())
    for rule in PROFILE_RULES:
        assert backend.profile(63, g9.rows, rule, False) == (4, chromatic.CLASS_PROFILE)
    assert backend.profile(63, g9.rows, None, True) == (4, chromatic.CLASS_PROFILE + (3,))


def test_profile_of_the_null_graph_and_an_unknown_rule(backend, monkeypatch):
    """Both backends: the null graph stops at the max-degree stage under
    family-members and is a ChromaticError past it; a rule that is no
    predicate's name is a ValueError naming it."""
    monkeypatch.setattr(kernels, "_active", backend)
    assert chromatic.profile((), "family-members", mcc=True) == (0, (0,))
    for rule in (None, "stability-gap"):
        with pytest.raises(ChromaticError,
                           match="^stability parameters are undefined for the null graph$"):
            chromatic.profile((), rule)
    assert set(generate.NAMED_PREDICATES) == set(PROFILE_RULES[1:])
    for rule in ("family", "Family-Members", b"family-members", 1, ["stability-gap"]):
        for rows in ((), complete_graph(3).rows):
            with pytest.raises(ValueError) as err:
                chromatic.profile(rows, rule)
            assert str(err.value) == f"unknown rule {rule!r}"


def test_funnel_splits_and_relabels_no_connected_graph(backend, monkeypatch):
    """profile calls neither graph.component_masks nor graph.induced: its
    kernel relabels.  On a connected graph, min_color_class_size never calls
    component_masks, and its one induced call takes the whole vertex mask,
    which induced hands back unrelabeled; analyze adds only what its
    planarity test calls.  On a disconnected graph, only the top components
    are relabeled."""
    monkeypatch.setattr(kernels, "_active", backend)
    levels = generate.all_levels(6)
    connected = [families.g9(), families.g10(), cycle_graph(5), complete_graph(4)]
    connected += [g for n in levels for _key, rows in levels[n]
                  if (g := Graph(n, rows)).is_connected()]
    calls = []
    for name in ("component_masks", "induced"):
        fn = getattr(graph, name)
        for module in (graph, chromatic, iso):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name,
                    lambda *args, fn=fn, name=name: calls.append((name, args[-1])) or fn(*args),
                )
    for g in connected:
        whole = ("induced", g.vertex_mask())
        chromatic.profile(g.rows, mcc=True)
        assert calls == [], g.rows
        chromatic.min_color_class_size(g)
        assert calls == [whole], g.rows
        calls.clear()
        iso.is_planar(g)
        planarity = list(calls)
        assert all(call == whole or call[0] == "component_masks" for call in planarity), g.rows
        calls.clear()
        chromatic.analyze(g)
        assert calls == [whole] + planarity, g.rows
        calls.clear()
    k4 = complete_graph(4)
    # 2K4 + K3 + K1: the two K4s are the top components
    g = Graph.build(12, k4.edges() + [(u + 4, v + 4) for u, v in k4.edges()]
                    + [(8, 9), (9, 10), (8, 10)])
    chromatic.profile(g.rows, mcc=True)
    assert calls == []
    chromatic.min_color_class_size(g)
    assert calls == [("induced", 0x0F), ("induced", 0xF0)]
