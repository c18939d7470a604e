import hashlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from functools import partial
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromastab import chromatic, families, generate, graph6, iso, kernels, oracles
from chromastab.graph import (
    Graph,
    UnionFind,
    apply_perm,
    bits,
    complete_bipartite,
    complete_graph,
    component_masks,
    cycle_graph,
    induced,
    mask_of,
    path_graph,
)
from chromastab.kernels import pure

from conftest import generated_orbits, have_c_toolchain


def random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def corpus():
    rng = random.Random(2024)
    out = []
    for _ in range(300):
        n = rng.randint(0, 9)
        out.append((n, random_rows(rng, n, rng.choice([0.15, 0.4, 0.7, 0.95]))))
    for g in [families.g9(), families.g10(), families.h_n_e(13, 1)]:
        out.append((g.n, g.rows))
    return out


def petersen():
    return Graph.build(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


def hypercube(d):
    return Graph.build(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                                if not v >> b & 1])


def triangles(k):
    return Graph.build(3 * k, [(3 * i + a, 3 * i + b) for i in range(k)
                               for a, b in ((0, 1), (1, 2), (0, 2))])


# (name, graph, |Aut|) for symmetric graphs whose groups are known; 21! and
# 2 * 8!^2 are beyond 64 bits.
SYMMETRIC = [
    *((f"K{n}", complete_graph(n), math.factorial(n)) for n in (8, 10, 16, 21)),
    ("K4,4", complete_bipartite(4, 4), 2 * math.factorial(4) ** 2),
    ("K8,8", complete_bipartite(8, 8), 2 * math.factorial(8) ** 2),
    ("Petersen", petersen(), 120),
    *((f"Q{d}", hypercube(d), 2 ** d * math.factorial(d)) for d in (3, 4, 5)),
    ("C20", cycle_graph(20), 40),
    ("6K3", triangles(6), 6 ** 6 * math.factorial(6)),
]


# pure_outputs() of the reference kernels.  The compiled backend must
# reproduce these outputs bit for bit, so a refactor of pure.py keeps them.
PURE_OUTPUTS_DIGEST = "bf1b536dae6d36aacb74c3a722e550b7901a4bc604fbd9890c8c30aeb7817872"


def pure_outputs(kern=pure):
    """sha256 over a kernel module's outputs on the corpus: chi, colorings for
    k = 0..chi+1, both stability witness scans, canon_raw up to 7 vertices.
    The colorings come from pure.color_graph, which has no compiled twin."""
    h = hashlib.sha256()
    for n, rows in corpus():
        chi = kern.chromatic_number(n, rows)
        out = [chi, [pure.color_graph(n, rows, k) for k in range(chi + 2)]]
        if chi >= 1:
            out.append(kern.stability_witnesses(n, rows, chi, False))
            out.append(kern.stability_witnesses(n, rows, chi, True))
        if n <= 7:
            out.append(kern.canon_raw(n, rows))
        h.update(repr(out).encode())
    return h.hexdigest()


def test_pure_outputs_are_pinned():
    assert pure_outputs() == PURE_OUTPUTS_DIGEST


# rows with a bit outside 0..n-1: beyond n, negative, 64 bits and more
MALFORMED_ROWS = [
    (4, (0b10, 0b101, 0b100010, 0)),
    (2, (-2, 0)),
    (3, (0, 0, -1 << 70)),
    (63, (1 << 63,) + (0,) * 62),
    (64, (1 << 64,) + (0,) * 63),
]


# one call of each kernel but children, as (name, arguments after n and
# rows); the kernels of PURE_ONLY_ARGS only pure defines, and their callers
# run them from pure on every backend
KERNEL_ARGS = [
    ("deletion_colorable", (0, 1)),
    ("chromatic_number", ()),
    ("top_components", ()),
    ("min_color_class_size", (1,)),
    ("stability_values", (1,)),
    ("stability_witnesses", (1, False)),
    ("canon_raw", ()),
    ("profile", (None, True)),
]
PURE_ONLY_ARGS = [("color_graph", (1,)), ("bipartizing_pairs", ()), ("planar", ())]
PURE_ONLY = {name for name, _args in PURE_ONLY_ARGS}


def kernel_calls(kern, n, rows):
    """One call of every kernel of kern on (n, rows); pure's own kernels
    come last."""
    table = KERNEL_ARGS + (PURE_ONLY_ARGS if kern is pure else [])
    return [partial(getattr(kern, name), n, rows, *args) for name, args in table]


def count_args(k):
    """(name, arguments after n and rows) of one call of each compiled
    kernel that takes a color count k or chi."""
    return [
        ("deletion_colorable", (0, k)),
        ("min_color_class_size", (k,)),
        ("stability_values", (k,)),
        ("stability_witnesses", (k, False)),
    ]


def color_count_calls(kern, k):
    """One call of every kernel of kern that takes a color count k or chi,
    on K2; pure's color_graph comes last."""
    calls = [partial(getattr(kern, name), 2, (2, 1), *args) for name, args in count_args(k)]
    if kern is pure:
        calls.append(partial(pure.color_graph, 2, (2, 1), k))
    return calls


def kernel_outcome(call):
    """A call's result, or the type and message of the error it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


ORDER_ERROR = ("ValueError", "vertex count outside 0..64")
ROW_ERROR = ("ValueError", "adjacency row with a bit outside 0..n-1")
NOT_AN_INT = ("TypeError", "'float' object cannot be interpreted as an integer")

# (n, rows, the error every kernel raises on them, or None when every kernel
# reads only rows[:n]): vertex counts outside 0..64 up to 2^70, a float n or
# row, rows with a bit outside 0..n-1, a missing row, and rows past n, a
# malformed one among them
ODD_GRAPHS = [
    *((n, (0,) * 3, ORDER_ERROR) for n in (-1, 65, 1 << 40, -(1 << 40), 1 << 70)),
    (3.0, (0, 0, 0), NOT_AN_INT),
    (3, (1.5, 0, 0), NOT_AN_INT),
    *((n, rows, ROW_ERROR) for n, rows in MALFORMED_ROWS),
    (3, (6, 5), ("IndexError", "tuple index out of range")),
    (2, (2, 1, 8), None),
    (0, (-1,), None),
    (3, (6, 5, 3, 1.5), None),
]

# counts that every kernel clamps to -1..n+2, and counts that are no int
ODD_COUNTS = [2.0, "x", -(1 << 70), -(1 << 40), -(1 << 31), -1, 0, 1, 2, 3, 4,
              (1 << 31) - 1, 1 << 40, 1 << 70]
# `excluded` masks: any int is one, and only its low n bits matter
ODD_EXCLUDED = [-1, 1 << 70, -1 << 70 | 1, 1.5]
# profile rules that name no predicate
MALFORMED_RULES = ["", "family", "Stability-Gap", "family-members\0", b"family-members", 1,
                   ["stability-gap"]]


def argument_cases():
    """(kernel name, arguments) of every compiled kernel on malformed and
    extreme arguments: ODD_GRAPHS, the scans past 62 vertices, every count
    of ODD_COUNTS on K2, ODD_EXCLUDED on K3, and MALFORMED_RULES on K0 and
    K3.  Both backends give each the same outcome, type and message
    included, and none raises OverflowError."""
    cases = [(name, (n, rows, *args)) for n, rows, _error in ODD_GRAPHS
             for name, args in KERNEL_ARGS]
    path63 = path_graph(63).rows
    cases += [("stability_values", (63, path63, 2)),
              ("stability_witnesses", (63, path63, 2, False))]
    cases += [(name, (2, (2, 1), *args)) for k in ODD_COUNTS for name, args in count_args(k)]
    cases += [("deletion_colorable", (3, (6, 5, 3), excluded, 2)) for excluded in ODD_EXCLUDED]
    cases += [("profile", (n, rows, rule, False)) for n, rows in ((0, ()), (3, (6, 5, 3)))
              for rule in MALFORMED_RULES]
    return cases


def case_outcomes(kern, cases):
    """The outcome of each (name, arguments) case on kern."""
    return [kernel_outcome(partial(getattr(kern, name), *args)) for name, args in cases]


def test_pure_kernels_read_malformed_and_extreme_arguments():
    """Every pure kernel raises the error of each odd graph, or reads only
    its first n rows; a count outside -1..n+2 has the answer of the nearest
    end, which K2 shows: it is k-colorable iff k >= 2, its one 2-coloring
    has classes of one vertex, and no count raises OverflowError."""
    for n, rows, error in ODD_GRAPHS:
        got = [kernel_outcome(call) for call in kernel_calls(pure, n, rows)]
        if error is None:
            assert got == [kernel_outcome(call) for call in kernel_calls(pure, n, rows[:n])]
        else:
            assert got == [error] * len(got), (n, rows)
    for k in ODD_COUNTS:
        outcomes = [kernel_outcome(call) for call in color_count_calls(pure, k)]
        if not isinstance(k, int):
            assert outcomes == [("TypeError", f"'{type(k).__name__}' object cannot be "
                                 "interpreted as an integer")] * len(outcomes)
            continue
        assert outcomes[:2] == [k >= 2, 1 if k == 2 else None], k
        assert outcomes[4] == ((0, 1) if k >= 2 else None), k
        assert "OverflowError" not in {out[0] for out in outcomes if isinstance(out, tuple)}
    # K3 minus every vertex, no vertex, and vertex 0
    assert [kernel_outcome(lambda: pure.deletion_colorable(3, (6, 5, 3), excluded, 2))
            for excluded in ODD_EXCLUDED] == [True, False, True, NOT_AN_INT]


def test_pure_min_color_class_size_refuses_more_colors_than_vertices():
    # returns before allocating the k class masks
    assert pure.min_color_class_size(3, (6, 5, 3), 2**31 - 1) is None


def test_color_counts_up_to_the_c_int_limit_agree(built_ckern):
    """Every kernel that takes a color count, on K2 with k = 2**31 - 1, ends
    without allocating per color, and both backends give the same outcome."""
    k = 2**31 - 1
    outcomes = [kernel_outcome(call) for call in color_count_calls(pure, k)]
    compiled = [kernel_outcome(call) for call in color_count_calls(built_ckern, k)]
    assert outcomes[: len(compiled)] == compiled
    assert outcomes[:3] == [True, None, (1, 1)]
    assert outcomes[-1] == (0, 1)  # pure.color_graph


@pytest.mark.parametrize("n", [-1, 65])
def test_pure_kernels_reject_vertex_counts_outside_0_64(n):
    for call in kernel_calls(pure, n, (0,) * max(n, 0)):
        with pytest.raises(ValueError, match=r"^vertex count outside 0\.\.64$"):
            call()


def test_compiled_core_compiles_without_warnings():
    """_ckern.c passes -Wall -Wextra under the build's own C compiler."""
    if not have_c_toolchain():
        pytest.skip("no C compiler or no Python.h")
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    source = Path(kernels.__file__).with_name("_ckern.c")
    check = subprocess.run(
        cc + ["-fsyntax-only", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
              "-I", sysconfig.get_paths()["include"], str(source)],
        capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stdout + check.stderr


def sanitized_cases():
    """(kernel name, arguments) for each compiled kernel on the inputs where
    the shifts and indices of _ckern.c reach their limits: corpus() with
    every color count near chi, SYMMETRIC, graphs of 63 and 64 vertices,
    profile under every rule with and without the minimum class size, and
    argument_cases()."""
    cases = []
    graphs = [(n, rows, n <= 10) for n, rows in corpus()]
    graphs += [(g.n, g.rows, g.n <= 10) for _name, g, _order in SYMMETRIC]
    big = [path_graph(63), Graph.build(64, []), disjoint(complete_graph(1), cycle_graph(63)),
           cycle_graph(64)]
    for g in big:
        graphs.append((g.n, g.rows, False))
    # g_n(63) reaches the scans' 62-vertex limit under every rule, and g9
    # with 54 isolated vertices is a top component far below it
    for g in big + [families.g_n(63), Graph.build(63, families.g9().edges())]:
        cases += [("profile", (g.n, g.rows, rule, mcc))
                  for rule in (None, "family-members", "stability-gap") for mcc in (False, True)]
    for n, rows, small in graphs:
        chi = pure.chromatic_number(n, rows)
        cases += [("chromatic_number", (n, rows)), ("top_components", (n, rows)),
                  ("min_color_class_size", (n, rows, chi))]
        for excluded in (0, 0x5555555555555555, (1 << n) - 1, -1):
            cases += [("deletion_colorable", (n, rows, excluded, k))
                      for k in (-1, 0, 1, 2, chi - 1, chi)]
        # the scans run where pure stays cheap, up to 10 vertices, and past
        # 62, where both stop at the 62-vertex check; past 10 vertices
        # canon_raw takes only connected graphs
        if small:
            cases += [("profile", (n, rows, rule, mcc))
                      for rule in (None, "family-members", "stability-gap")
                      for mcc in (False, True)]
        if small or n > 62:
            cases += [("stability_values", (n, rows, chi)),
                      ("stability_witnesses", (n, rows, chi, False)),
                      ("stability_witnesses", (n, rows, chi, True))]
        if small or len(component_masks(n, rows)) == 1:
            cases.append(("canon_raw", (n, rows)))
        # P63 has 2^63 neighbor subsets, and 4 of degree at most 2
        if n <= 7 or n == 63:
            gens = iso.canon_data(n, rows).generators
            cases += [("children", (n, rows, max_degree, gens))
                      for max_degree in ((None, 2) if n <= 7 else (2,))]
    return cases + argument_cases()


def sanitized_outcomes(kern, cases):
    """The outcome of each case on kern, then of each children_calls call."""
    return case_outcomes(kern, cases) + [kernel_outcome(call) for call in children_calls(kern)]


# Run in a fresh interpreter, which an undefined-behavior report aborts:
# argv holds the tests directory and the sanitized build.
SANITIZED_RUN = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import test_kernels as t
spec = importlib.util.spec_from_file_location("chromastab.kernels._ckern", sys.argv[2])
ck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ck)
cases = t.sanitized_cases()
want = t.sanitized_outcomes(t.pure, cases)
got = t.sanitized_outcomes(ck, cases)
bad = [(case, w, g) for case, w, g in zip(cases, want, got) if w != g]
assert len(want) == len(got) and not bad, bad[:3]
"""


def test_compiled_core_has_no_undefined_behavior(tmp_path):
    """_ckern.c built with -fsanitize=undefined, under the build's own C
    compiler, gives pure's outcome on every sanitized case; any undefined
    shift, overflow or index aborts the run.  Skipped where the compiler
    does not take the flags."""
    if not have_c_toolchain():
        pytest.skip("no C compiler or no Python.h")
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    flags = ["-shared", "-fPIC", "-O1", "-fsanitize=undefined",
             "-fno-sanitize-recover=undefined"]
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x << 1; }\n")
    if subprocess.run(cc + flags + [str(probe), "-o", str(tmp_path / "probe.so")],
                      capture_output=True).returncode != 0:
        pytest.skip("the C compiler does not take -fsanitize=undefined")
    source = Path(kernels.__file__).with_name("_ckern.c")
    so = tmp_path / ("_ckern" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        cc + flags + ["-I", sysconfig.get_paths()["include"], str(source), "-o", str(so)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    run = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(Path(__file__).parent), str(so)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "runtime error" not in run.stderr, run.stderr


def test_compiled_core_builds_and_matches_pure(built_ckern, levels_through_8):
    """Hold the out-of-tree build of _ckern.c to the pure outputs."""
    ck = built_ckern
    assert ck.BACKEND == "compiled"

    assert pure_outputs(ck) == PURE_OUTPUTS_DIGEST
    for n, rows in corpus():
        chi = pure.chromatic_number(n, rows)
        g = Graph(n, rows)
        # no vertex left, and no color: the walk decides both
        for excluded in (0, 0x5555555555555555 & ((1 << n) - 1), (1 << n) - 1):
            left_chi = oracles.brute_chromatic_number(g.delete_vertices(excluded))
            for k in (-1, 0, 1, 2, chi - 1, chi, chi + 1):
                got = pure.deletion_colorable(n, rows, excluded, k)
                assert ck.deletion_colorable(n, rows, excluded, k) == got
                if k >= 0:
                    assert got == (left_chi <= k), (rows, excluded, k)
        if chi >= 1:
            assert ck.stability_values(n, rows, chi) == pure.stability_values(n, rows, chi)
            assert ck.min_color_class_size(n, rows, chi) == pure.min_color_class_size(
                n, rows, chi
            )
        assert ck.canon_raw(n, rows) == pure.canon_raw(n, rows)
    for _name, g, _order in SYMMETRIC:
        assert ck.canon_raw(g.n, g.rows) == pure.canon_raw(g.n, g.rows)
    # every order-8 class with max degree <= 4, the search8 classes, and one
    # shuffled relabeling of each
    rng = random.Random(8)
    for _key, rows in levels_through_8[8]:
        if max(r.bit_count() for r in rows) <= 4:
            shuffled = apply_perm(8, rows, rng.sample(range(8), 8))
            for r in (rows, shuffled):
                assert ck.canon_raw(8, r) == pure.canon_raw(8, r), r

    # malformed and extreme arguments give one outcome on both backends,
    # type and message included, and no integer raises OverflowError; the
    # pure outcomes are pinned by test_pure_kernels_read_malformed_and_extreme_arguments
    cases = argument_cases()
    want = case_outcomes(pure, cases)
    assert case_outcomes(ck, cases) == want
    assert "OverflowError" not in {out[0] for out in want if isinstance(out, tuple)}

    # independent_only is taken once, after the rows, chi and the 62-vertex
    # limit are checked: a failing truth test shows where
    class NoTruth:
        def __bool__(self):
            raise RuntimeError("no truth value")

    for n, error in ((63, ValueError), (0, RuntimeError), (3, RuntimeError)):
        rows = path_graph(n).rows
        outcomes = [kernel_outcome(lambda: kern.stability_witnesses(n, rows, 2, NoTruth()))
                    for kern in (pure, ck)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == error.__name__, outcomes


def test_backends_agree_everywhere(built_ckern):
    ck = built_ckern
    for n, rows in corpus():
        chi = pure.chromatic_number(n, rows)
        assert ck.chromatic_number(n, rows) == chi
        assert ck.top_components(n, rows) == pure.top_components(n, rows)
        for k in (0, 1, 2, chi - 1, chi, chi + 1):
            if k < 0:
                continue
            assert pure.deletion_colorable(n, rows, 0, k) == ck.deletion_colorable(
                n, rows, 0, k
            )
        if chi >= 1:
            assert pure.stability_values(n, rows, chi) == ck.stability_values(n, rows, chi)
            assert pure.stability_witnesses(
                n, rows, chi, False
            ) == ck.stability_witnesses(n, rows, chi, False)
            assert pure.stability_witnesses(
                n, rows, chi, True
            ) == ck.stability_witnesses(n, rows, chi, True)
            assert pure.min_color_class_size(n, rows, chi) == ck.min_color_class_size(
                n, rows, chi
            )
        assert pure.canon_raw(n, rows) == ck.canon_raw(n, rows)


def public_kernels(kern):
    """{name: parameter names} of the kernels a backend module defines."""
    return {
        name: list(inspect.signature(fn).parameters)
        for name, fn in vars(kern).items()
        if inspect.isroutine(fn) and not name.startswith("_")
        and getattr(fn, "__module__", None) == kern.__name__
    }


def test_backends_export_the_same_kernels(built_ckern):
    """The build of _ckern.c defines pure's public kernels but the three
    that only pure defines, each with pure's parameters."""
    kernels_of_pure = public_kernels(pure)
    assert len(kernels_of_pure) == 12 and PURE_ONLY <= set(kernels_of_pure)
    compiled = public_kernels(built_ckern)
    assert len(compiled) == 9
    assert compiled == {name: params for name, params in kernels_of_pure.items()
                        if name not in PURE_ONLY}


def test_compiled_kernels_do_not_leak(built_ckern):
    """2,000 calls of each kernel that hands back a tuple or a list leave
    less than 64 KiB of traced growth; a reference leaked per call would
    keep each call's result alive."""
    ck = built_ckern
    c40, g9 = cycle_graph(40), families.g9()
    k3k3 = disjoint(K3, K3)
    g9_gens = iso.canon_data(g9.n, g9.rows).generators
    k3k3_gens = iso.canon_data(k3k3.n, k3k3.rows).generators
    calls = {
        "canon_raw": lambda: ck.canon_raw(c40.n, c40.rows),
        "stability_witnesses": lambda: ck.stability_witnesses(g9.n, g9.rows, 3, False),
        "top_components": lambda: ck.top_components(k3k3.n, k3k3.rows),
        "profile": lambda: ck.profile(g9.n, g9.rows, "stability-gap", True),
        "profile of a disconnected graph": lambda: ck.profile(k3k3.n, k3k3.rows, None, True),
        "profile with an unknown rule": lambda: kernel_outcome(
            lambda: ck.profile(g9.n, g9.rows, "no-such-rule", True)
        ),
        "children": lambda: ck.children(g9.n, g9.rows, None, g9_gens),
        "children of a disconnected parent": lambda: ck.children(
            k3k3.n, k3k3.rows, None, k3k3_gens
        ),
    }
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2000):
                call()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024, (name, growth)


def test_callers_of_pure_only_kernels_run_on_the_built_module(
    built_ckern, s9_catalog, monkeypatch
):
    """analyze, is_k_colorable and subdivide_family give the same results
    with the built module active as on pure, so none of them reaches a
    kernel that only pure defines through kernels.active().  corpus() holds
    g9 and g10; subdivide_family takes each edge of five catalog hosts."""
    graphs = [Graph(n, rows) for n, rows in corpus() if n]
    hosts = s9_catalog.graphs()[:5]

    def results():
        reports = []
        for g in graphs:
            chi = chromatic.chromatic_number(g)
            reports.append(chromatic.analyze(g))
            reports += [chromatic.is_k_colorable(g, k) for k in (chi - 1, chi)]
        subdivided = [kernel_outcome(lambda: families.subdivide_family(host, [(e, 2)]))
                      for host in hosts for e in host.edges()]
        return reports, subdivided

    monkeypatch.setattr(kernels, "_active", pure)
    want = results()
    monkeypatch.setattr(kernels, "_active", built_ckern)
    assert results() == want
    # the hosts have edges both outside and inside their bipartizing-pair core
    kinds = {type(out).__name__ for out in want[1]}
    assert kinds == {"Graph", "tuple"}


def test_backend_switch(built_ckern, monkeypatch):
    """set_backend on a tree where the compiled extension is the built module."""
    monkeypatch.setattr(kernels, "_compiled", built_ckern)
    monkeypatch.setattr(kernels, "_active", kernels._active)
    assert kernels.have_compiled()
    assert kernels.set_backend("pure").BACKEND == "pure"
    assert kernels.set_backend("compiled") is built_ckern
    assert kernels.backend_name() == "compiled"
    assert kernels.set_backend("auto") is built_ckern
    with pytest.raises(ValueError):
        kernels.set_backend("nope")
    # and on a tree without it
    monkeypatch.setattr(kernels, "_compiled", None)
    assert kernels.set_backend("auto") is pure
    with pytest.raises(RuntimeError, match="not available"):
        kernels.set_backend("compiled")


def test_proper_coloring_output():
    for n, rows in corpus()[:80]:
        chi = pure.chromatic_number(n, rows)
        if chi == 0:
            continue
        colors = pure.color_graph(n, rows, chi)
        assert colors is not None
        for v in range(n):
            for u in range(v):
                if rows[v] >> u & 1:
                    assert colors[u] != colors[v]
        assert pure.color_graph(n, rows, chi - 1) is None


# ---------------------------------------------------------------------------
# the canon_raw contract, on pure and on the out-of-tree build
# ---------------------------------------------------------------------------


def test_canon_raw_generators_are_automorphisms(backend):
    graphs = [(n, rows) for n, rows in corpus()]
    graphs += [(g.n, g.rows) for _name, g, _order in SYMMETRIC]
    for n, rows in graphs:
        perm, _order, gens, orbits, crows = backend.canon_raw(n, rows)
        assert sorted(perm) == list(range(n))
        # the canonical rows are the graph relabeled by perm
        assert crows == apply_perm(n, rows, perm)
        assert len(gens) <= max(n - 1, 0)
        for gen in gens:
            assert sorted(gen) == list(range(n))
            assert all(rows[gen[v]] == sum(1 << gen[u] for u in range(n) if rows[v] >> u & 1)
                       for v in range(n))
        assert generated_orbits(n, gens) == orbits


def test_canon_raw_group_matches_brute_force_through_order_7(backend, levels_through_8):
    for order in range(1, 8):
        for _key, rows in levels_through_8[order]:
            _perm, aut_order, gens, orbits, _rows = backend.canon_raw(order, rows)
            brute_order, brute_orbits = oracles.brute_automorphisms(Graph(order, rows))
            assert (aut_order, orbits) == (brute_order, brute_orbits), rows
            assert generated_orbits(order, gens) == brute_orbits, rows


@pytest.mark.parametrize("name,g,order", SYMMETRIC, ids=[name for name, _g, _o in SYMMETRIC])
def test_canon_raw_known_group_orders(backend, name, g, order):
    _perm, aut_order, _gens, orbits, _rows = backend.canon_raw(g.n, g.rows)
    assert aut_order == order
    assert type(aut_order) is int
    # every graph here is vertex-transitive
    assert orbits == (0,) * g.n


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(8, 22)]
    + [complete_bipartite(p, p) for p in range(2, 9)]
    + [triangles(6)],
    ids=[f"K{n}" for n in range(8, 22)] + [f"K{p},{p}" for p in range(2, 9)] + ["6K3"],
)
def test_symmetric_graphs_refine_at_most_n_squared_times(monkeypatch, g):
    calls = 0
    refine = pure._refine

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(pure, "_refine", counting)
    pure.canon_raw(g.n, g.rows)
    assert calls <= g.n ** 2


def round_by_round_refine(n, rows, colors):
    """The reference for pure._refine, as the compiled core computes it:
    every round gives each vertex the dense rank of (color, sorted neighbor
    colors) over all vertices, until the number of colors stops rising."""
    ncolors = len(set(colors))
    while True:
        sigs = [(colors[v], sorted(colors[u] for u in range(n) if rows[v] >> u & 1))
                for v in range(n)]
        ranks = sorted({(c, tuple(neigh)) for c, neigh in sigs})
        colors = [ranks.index((c, tuple(neigh))) for c, neigh in sigs]
        if len(ranks) in (ncolors, n):
            return colors
        ncolors = len(ranks)


def cells_of(colors):
    """The cells of a coloring in ascending order of color, each as its
    vertices in ascending order: what pure._refine takes and returns."""
    return [[v for v, c in enumerate(colors) if c == color] for color in sorted(set(colors))]


def reference_refine(nbrs, colors):
    """A reference for pure._refine that carries no cells: it groups the
    vertices by color on every call and returns the colors alone."""
    n = len(nbrs)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    while True:
        color_of = colors.__getitem__
        new = [0] * n
        refined = []
        rank = 0
        for cell in cells:
            if len(cell) == 1:
                new[cell[0]] = rank
                rank += 1
                refined.append(cell)
                continue
            keyed = sorted([(sorted(map(color_of, nbrs[v])), v) for v in cell])
            prev = keyed[0][0]
            part = []
            for sig, v in keyed:
                if sig != prev:
                    refined.append(part)
                    part = []
                    rank += 1
                    prev = sig
                new[v] = rank
                part.append(v)
            refined.append(part)
            rank += 1
        if rank == len(cells) or rank == n:
            return new
        colors = new
        cells = refined


def reference_label(n, rows):
    """A reference for pure._label without cells, the degree-ranked root or
    the last-cell test: every node refines from its colors alone, starting
    at the unit partition."""
    nbrs = [bits(r) for r in rows]
    uf = UnionFind(n)
    gens = []
    path = []
    first = best = None

    def kept(colors, crows):
        inv = [0] * n
        for v in range(n):
            inv[colors[v]] = v
        return tuple(path), crows, inv, colors

    def leaf(colors):
        nonlocal first, best
        crows = [0] * n
        for v in range(n):
            pv = colors[v]
            for u in nbrs[v]:
                crows[pv] |= 1 << colors[u]
        if first is None:
            first = best = kept(colors, crows)
            return len(path) - 1
        for ref_path, ref_rows, ref_inv, _ in (first, best):
            if crows == ref_rows:
                alpha = tuple(ref_inv[colors[v]] for v in range(n))
                merged = False
                for v in range(n):
                    if uf.union(v, alpha[v]):
                        merged = True
                if merged:
                    gens.append(alpha)
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth
        if crows < best[1]:
            best = kept(colors, crows)
        return len(path) - 1

    def search(colors):
        depth = len(path)
        cell_size = [0] * n
        for c in colors:
            cell_size[c] += 1
        target = -1
        largest = 1
        for c in range(n):
            if cell_size[c] > largest:
                largest = cell_size[c]
                target = c
        if target < 0:
            return leaf(colors)
        members = [v for v in range(n) if colors[v] == target]
        explored = []
        for w in members:
            if explored and w in pure._orbit(explored, pure._fixing(gens, path)):
                continue
            child = [2 * c for c in colors]
            for u in members:
                if u != w:
                    child[u] += 1
            path.append(w)
            resume = search(reference_refine(nbrs, child))
            path.pop()
            if resume < depth:
                return resume
            explored.append(w)
        return depth - 1

    search(reference_refine(nbrs, [0] * n))
    first_path = first[0]
    aut_order = 1
    for i, v in enumerate(first_path):
        aut_order *= len(pure._orbit([v], pure._fixing(gens, first_path[:i])))
    orbits = tuple(uf.find(v) for v in range(n))
    return tuple(best[3]), aut_order, tuple(gens), orbits, tuple(best[1])


@st.composite
def colored_graphs(draw):
    """(n, rows, colors, cells): a G(n, p) graph with n <= 16 or a SYMMETRIC
    graph, with a random coloring (sparse colors included) or the coloring
    of a child node: the refined coloring with one vertex w of a cell at 2c
    and the rest of the cell at 2c + 1, every other vertex at 2c.  The cells
    are the coloring's; a child's are its parent's with the target cell
    split into [w] and the rest, as pure._label splits them."""
    if draw(st.booleans()):
        g = draw(st.sampled_from([g for _name, g, _order in SYMMETRIC]))
        n, rows = g.n, g.rows
    else:
        n = draw(st.integers(0, 16))
        p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
        rows = random_rows(random.Random(draw(st.integers(0, 2**32))), n, p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "sparse", "child"]))
    if kind == "random" or n == 0:
        k = rng.randint(1, max(n, 1))
        colors = [rng.randrange(k) for _ in range(n)]
    elif kind == "sparse":
        colors = [rng.choice([0, 3, 7, 40]) * rng.randrange(1, 4) for _ in range(n)]
    else:
        parent = round_by_round_refine(n, rows, [0] * n)
        cells = cells_of(parent)
        target = parent[rng.randrange(n)]
        w = rng.choice(cells[target])
        colors = [2 * c + (c == target and v != w) for v, c in enumerate(parent)]
        rest = [v for v in cells[target] if v != w]
        # a singleton target leaves no rest, and no empty cell
        split = [[w], rest] if rest else [[w]]
        return n, rows, colors, cells[:target] + split + cells[target + 1:]
    return n, rows, colors, cells_of(colors)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=colored_graphs())
@example(case=(0, (), [], []))
@example(case=(8, complete_graph(8).rows, [0] * 8, [list(range(8))]))
@example(case=(6, cycle_graph(6).rows, [4, 2, 2, 2, 2, 2], [[1, 2, 3, 4, 5], [0]]))
def test_refine_matches_the_round_by_round_ranking(case):
    """pure._refine gives the round-by-round colors, and the cells of those
    colors, from a coloring and its cells; the reference body gives the
    same colors from the coloring alone."""
    n, rows, colors, cells = case
    nbrs = [tuple(u for u in range(n) if rows[v] >> u & 1) for v in range(n)]
    want = round_by_round_refine(n, rows, colors)
    assert pure._refine(nbrs, list(colors), cells) == (want, cells_of(want))
    assert reference_refine(nbrs, list(colors)) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=colored_graphs())
def test_the_degree_ranked_root_is_the_refined_unit_partition(case):
    n, rows, _colors, _cells = case
    nbrs = [bits(r) for r in rows]
    want = round_by_round_refine(n, rows, [0] * n)
    assert pure._root(nbrs) == (want, cells_of(want))


def test_label_matches_the_reference_through_order_8_and_on_symmetric_graphs(levels_through_8):
    """The labeling that carries cells down the tree and starts from the
    degree-ranked root equals the reference's, item for item."""
    graphs = [(n, rows) for n in range(9) for _key, rows in levels_through_8.get(n, ())]
    graphs += [(g.n, g.rows) for _name, g, _order in SYMMETRIC]
    for n, rows in graphs:
        assert pure._label(n, rows) == reference_label(n, rows), rows


def last_cell_misses(classes, pick):
    """(rows, v) for every vertex v in the orbit of the canonically last
    vertex of a class that lies outside pick(cells of the class's root)."""
    misses = []
    for n, rows in classes:
        _colors, cells = pure._root([bits(r) for r in rows])
        perm, _order, _gens, orbits, _crows = pure.canon_raw(n, rows)
        last = perm.index(n - 1)
        cell = pick(cells)
        misses += [(rows, v) for v in range(n) if orbits[v] == orbits[last] and v not in cell]
    return misses


def test_the_root_last_cell_holds_the_orbit_of_the_canonically_last_vertex(levels_through_8):
    """The last-cell test of pure._label rejects only vertices outside that
    orbit: on every class through order 7, and on order 8 with max degree
    4.  A test against the first cell instead fails here."""
    classes = [(n, rows) for n in range(1, 8) for _key, rows in levels_through_8[n]]
    classes += [(8, rows) for _key, rows in levels_through_8[8]
                if max(r.bit_count() for r in rows) <= 4]
    assert last_cell_misses(classes, lambda cells: cells[-1]) == []
    assert last_cell_misses(classes, lambda cells: cells[0])


def test_the_last_cell_test_rejects_exactly_the_vertices_outside_the_last_cell(levels_through_8):
    """pure._label given a vertex returns None exactly when the vertex lies
    outside the root's last cell, and otherwise the full labeling."""
    for n in range(1, 7):
        for _key, rows in levels_through_8[n]:
            _colors, cells = pure._root([bits(r) for r in rows])
            labeling = pure._label(n, rows)
            for v in range(n):
                got = pure._label(n, rows, v)
                assert got == (labeling if v in cells[-1] else None), (rows, v)


@pytest.mark.parametrize("max_degree", [3, 4, None])
def test_labeled_graphs_are_counted_by_automorphism_orders(
    backend, levels_through_8, max_degree
):
    """sum of n!/|Aut(G)| over the classes is the number of labeled graphs."""
    for n in range(1, 9):
        total = 0
        for _key, rows in levels_through_8[n]:
            if max_degree is None or max(r.bit_count() for r in rows) <= max_degree:
                aut_order = backend.canon_raw(n, rows)[1]
                assert math.factorial(n) % aut_order == 0
                total += math.factorial(n) // aut_order
        assert total == oracles.labeled_count(n, max_degree), n
        if max_degree is None:
            assert total == 2 ** math.comb(n, 2)


def test_labeled_count_small_cases():
    assert [oracles.labeled_count(n, 1) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert [oracles.labeled_count(n, 0) for n in range(4)] == [1, 1, 1, 1]
    # max degree 2 on 5 vertices, against a scan of all 1,024 labeled graphs
    direct = sum(1 for g in oracles.all_labeled_graphs(5) if max(g.degrees()) <= 2)
    assert oracles.labeled_count(5, 2) == direct
    # the sum of 10!/|Aut(G)| over the 108,376 order-10 classes with max degree 4
    assert oracles.labeled_count(10, 4) == 275_322_712_826


# ---------------------------------------------------------------------------
# the stability scans: clique-hitting prefilter, differential fuzz
# ---------------------------------------------------------------------------


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.build(n, [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]])


@st.composite
def scan_graphs(draw, max_n=12):
    """G(n, p) graphs with n <= max_n, from sparse to dense."""
    n = draw(st.sampled_from(range(max_n + 1)))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
    rows = random_rows(random.Random(draw(st.integers(0, 2**32))), n, p)
    return Graph(n, rows)


def scan_outputs(kern, n, rows, chi):
    """Both scans' results, or the error each raised, at one chi."""
    out = []
    for call in (
        lambda: kern.stability_values(n, rows, chi),
        lambda: kern.stability_witnesses(n, rows, chi, False),
        lambda: kern.stability_witnesses(n, rows, chi, True),
    ):
        try:
            out.append(call())
        except (AssertionError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


# more K_chi's than vertices, so the scans use only the first n of them
MANY_CLIQUES = [complete_multipartite(2, 2, 2, 2), complete_multipartite(3, 3, 3)]


# chi at and near the ends of the C int range; both backends clamp chi to
# -1..n+2, so chi - 1 cannot overflow
EXTREME_CHIS = [-(1 << 31), -(1 << 31) + 1, -1, 0, (1 << 31) - 1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=scan_graphs())
@example(g=MANY_CLIQUES[0])
@example(g=MANY_CLIQUES[1])
@example(g=complete_graph(62))  # the largest order the scans take
@example(g=Graph.build(1, []))
@example(g=complete_graph(2))
def test_stability_scans_match_between_backends(built_ckern, g):
    chi = pure.chromatic_number(g.n, g.rows)
    # any chi the caller passes, where the pure scans stay cheap
    chis = [*range(chi + 2), *EXTREME_CHIS] if g.n <= 7 else [chi]
    for c in chis:
        assert scan_outputs(pure, g.n, g.rows, c) == scan_outputs(built_ckern, g.n, g.rows, c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([63, 64]), seed=st.integers(0, 2**32), chi=st.integers(-1, 65))
def test_stability_scans_reject_over_62_vertices_alike(built_ckern, n, seed, chi):
    rows = random_rows(random.Random(seed), n, 0.3)
    expected = [("ValueError", "stability scans support at most 62 vertices")] * 3
    assert scan_outputs(pure, n, rows, chi) == expected
    assert scan_outputs(built_ckern, n, rows, chi) == expected


def test_scans_on_graphs_with_more_cliques_than_vertices(backend):
    # the parts are the minimum deletion sets: each leaves K_{p,...,p} minus a part
    for g, parts in zip(MANY_CLIQUES, [[0b11 << 2 * i for i in range(4)],
                                        [0b111 << 3 * i for i in range(3)]]):
        chi = len(parts)
        assert len(brute_cliques(g.n, g.rows, chi)) > g.n
        size = parts[0].bit_count()
        expected = (size, tuple(parts))
        assert backend.stability_witnesses(g.n, g.rows, chi, False) == expected
        assert backend.stability_witnesses(g.n, g.rows, chi, True) == expected
        assert backend.stability_values(g.n, g.rows, chi) == (size, size)


def brute_cliques(n, rows, size):
    """Every K_size as a mask, in ascending lexicographic order."""
    return [
        mask_of(c)
        for c in itertools.combinations(range(n), size)
        if all(rows[u] >> v & 1 for u, v in itertools.combinations(c, 2))
    ]


def test_scans_test_colorings_only_of_sets_meeting_every_collected_clique(monkeypatch):
    graphs = [(n, rows) for n, rows in corpus() if n <= 9] + [(g.n, g.rows) for g in MANY_CLIQUES]
    tested = []
    colorable = pure._colorable_excluding

    def recording(rows, order, excluded, k):
        tested.append(excluded)
        return colorable(rows, order, excluded, k)

    skipped_any = False
    for n, rows in graphs:
        chi = pure.chromatic_number(n, rows)
        if chi == 0:
            continue
        # the scans collect the first n K_chi's, which are all of them when
        # there are at most n
        cliques = brute_cliques(n, rows, chi)[:n]
        assert pure._cliques(n, rows, chi) == cliques
        monkeypatch.setattr(pure, "_colorable_excluding", recording)
        pure.stability_values(n, rows, chi)
        pure.stability_witnesses(n, rows, chi, False)
        pure.stability_witnesses(n, rows, chi, True)
        monkeypatch.setattr(pure, "_colorable_excluding", colorable)
        assert all(mask & c for mask in tested for c in cliques), rows
        skipped_any |= len(tested) < 2 ** n
        tested.clear()
    assert skipped_any


def test_clique_collection_stops_at_the_cap():
    """K_{3,...,3} with 20 parts has 3^20 maximum cliques; the collection
    returns the first 60: one vertex per part, chosen by the base-3 digits
    of 0..59, most significant part first."""
    g = complete_multipartite(*[3] * 20)
    start = time.perf_counter()
    cliques = pure._cliques(g.n, g.rows, 20)
    elapsed = time.perf_counter() - start
    expected = []
    for i in range(60):
        digits = [i // 3 ** (19 - j) % 3 for j in range(20)]
        expected.append(mask_of(3 * j + d for j, d in enumerate(digits)))
    assert cliques == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# min_color_class_size: brute-force oracle, differential fuzz, pruning
# ---------------------------------------------------------------------------


def test_min_color_class_size_matches_brute_force_through_order_6():
    levels = generate.all_levels(6)
    for n in levels:
        for _key, rows in levels[n]:
            g = Graph(n, rows)
            for k in range(1, n + 2):
                assert pure.min_color_class_size(n, rows, k) == (
                    oracles.brute_min_color_class_size(g, k)
                ), (rows, k)


def disjoint(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(n + u, n + v) for u, v in g.edges()]
        n += g.n
    return Graph.build(n, edges)


K3, K5 = complete_graph(3), complete_graph(5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=scan_graphs())
@example(g=complete_multipartite(3, 3, 3))
@example(g=disjoint(K3, K3, K3, K3, K5))  # both labelings of 4K3 + K5
@example(g=disjoint(K5, K3, K3, K3, K3))
@example(g=Graph.build(12, []))
def test_min_color_class_size_matches_between_backends(built_ckern, g):
    chi = pure.chromatic_number(g.n, g.rows)
    for k in range(chi + 2):
        got = pure.min_color_class_size(g.n, g.rows, k)
        assert got == built_ckern.min_color_class_size(g.n, g.rows, k), k
        # some coloring uses all k colors iff chi <= k <= n; below chi lies
        # every k below the clique number
        assert (got is None) == (g.n == 0 or not chi <= k <= g.n), k


# The ten top components of the benchmark's seed-0 invariants corpus on
# which the search in plain index order, without a clique seed, visited the
# most nodes: 17,173 down to 4,703, 69,303 in all.
SLOW_MCC = [
    "O_C?C_W_{?E_FGCCpAwTc",
    "OQQsYPwHQqPHOAVx}Ty~P",
    "NRw?ACQOoCl\\OX?||nW",
    "OQIH?pMZXEJ\\VVz[HZKBf",
    "NG]eBAF_K]S@?KaisXg",
    "OZuYm?CPRdPDYmfy|hjjv",
    "OHA?IT?Go??dHB_Qc~`tI",
    "O?IO?GoAHEH?oB?KW_CDe",
    "LACQWIe`ANQtty",
    "NG_SKSo?my~^QHBYoHG",
]


def test_min_color_class_size_search_is_clique_seeded_and_connected(monkeypatch):
    calls = []
    walk = pure._mcc_walk

    def counting(rows, order, idx, used, *rest):
        calls.append((idx, used))
        return walk(rows, order, idx, used, *rest)

    monkeypatch.setattr(pure, "_mcc_walk", counting)
    total = 0
    for text in SLOW_MCC:
        g = graph6.decode(text)
        chi = pure.chromatic_number(g.n, g.rows)
        omega = len(pure._greedy_clique(g.rows, pure._degree_order(g.n, g.rows)))
        # a clique larger than k rules out k-colorings without a search
        for k in range(omega):
            assert pure.min_color_class_size(g.n, g.rows, k) is None
        assert calls == []
        assert pure.min_color_class_size(g.n, g.rows, chi) is not None
        # the search starts with the clique precolored
        assert calls[0] == (omega, omega)
        total += len(calls)
        calls.clear()
    # 313 nodes; the same seed with the rest in index order visits 16,181
    assert total <= 1000
    # an edgeless graph's first complete coloring has a class of one vertex,
    # and the search stops there: 27 nodes, against 2,022,894 without the stop
    assert pure.min_color_class_size(12, (0,) * 12, 6) == 1
    assert len(calls) <= 100


def split_top_components(kern, n, rows):
    """(chi, masks) the way the chromatic layer once found them: the
    components by graph.component_masks, each relabeled by induced and
    colored by chromatic_number."""
    chi, top = 0, []
    for comp in component_masks(n, rows):
        verts, crows = induced(rows, comp)
        c = kern.chromatic_number(len(verts), crows)
        if c > chi:
            chi, top = c, []
        if c == chi:
            top.append(comp)
    return chi, tuple(top)


def seeded_unions(rng, count):
    """`count` shuffled disjoint unions of 1-4 classes of order <= 5, one
    piece repeated, with 0-3 isolated vertices mixed in, as (n, rows)."""
    pieces = [Graph(n, rows) for n in range(1, 6) for _key, rows in generate.levels_up_to(n)]
    for _ in range(count):
        parts = [rng.choice(pieces) for _ in range(rng.randint(1, 4))]
        parts.append(rng.choice(parts))
        parts += [complete_graph(1)] * rng.randint(0, 3)
        g = disjoint(*parts)
        yield g.n, apply_perm(g.n, g.rows, rng.sample(range(g.n), g.n))


def test_top_components_match_the_split_and_chromatic_number(backend, levels_through_8):
    """top_components against component_masks plus chromatic_number of each
    relabeled component: every class through order 7, 400 seeded unions
    with repeated pieces and isolated vertices, and unions of up to 64
    vertices.  chromatic_number is the chi that top_components returns."""
    cases = [(0, ())]
    cases += [(n, rows) for n in range(1, 8) for _key, rows in levels_through_8[n]]
    cases += seeded_unions(random.Random(21), 400)
    for g in (
        disjoint(K3, K3, K3, K3, K5),
        disjoint(K5, K3, K3, K3, K3),
        Graph.build(12, []),
        Graph.build(64, []),
        disjoint(*[complete_graph(4)] * 16),
        disjoint(complete_graph(1), cycle_graph(63)),
        disjoint(cycle_graph(31), cycle_graph(33)),
    ):
        cases.append((g.n, g.rows))
    disconnected = 0
    for n, rows in cases:
        want = split_top_components(backend, n, rows)
        assert backend.top_components(n, rows) == want, rows
        assert backend.chromatic_number(n, rows) == want[0], rows
        disconnected += len(component_masks(n, rows)) > 1
    assert disconnected >= 400


def recursive_walk(rows, order, k):
    """The reference for pure._walk: the same depth-first search as a
    recursion, trying each vertex's colors in ascending order."""
    size = len(order)
    classes = [0] * min(k, size)

    def walk(idx, used):
        if idx == size:
            return True
        v = order[idx]
        for c in range(used + 1 if used < k else k):
            if rows[v] & classes[c]:
                continue
            classes[c] |= 1 << v
            if walk(idx + 1, used + 1 if c == used else used):
                return True
            classes[c] ^= 1 << v
        return False

    return classes if walk(0, 0) else None


def test_walk_matches_the_recursive_reference():
    """pure._walk finds the reference's first coloring, or none, on random
    graphs of at most 12 vertices for every k in -1..n+2, in degree order,
    in a shuffled order and over part of the vertices; color_graph gives
    that coloring."""
    rng = random.Random(30)
    for _ in range(300):
        n = rng.randint(0, 12)
        rows = random_rows(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        order = pure._degree_order(n, rows)
        for k in range(-1, n + 3):
            for walked in (order, rng.sample(order, n), order[: n // 2]):
                assert pure._walk(rows, walked, k) == recursive_walk(rows, walked, k), (rows, k)
            classes = recursive_walk(rows, order, k)
            colors = None if classes is None else tuple(
                next(c for c, members in enumerate(classes) if members >> v & 1) for v in range(n)
            )
            assert pure.color_graph(n, rows, k) == colors, (rows, k)


def test_colorability_walks_stop_below_the_vertex_count(monkeypatch):
    """chromatic_number and top_components never test s colors on s
    vertices, since every graph on s vertices is s-colorable: K_n takes no
    walk at all, and any other graph or component only k < s."""
    tested = []
    colorable = pure._colorable_excluding

    def recording(rows, order, excluded, k):
        tested.append(((((1 << len(order)) - 1) & ~excluded).bit_count(), k))
        return colorable(rows, order, excluded, k)

    monkeypatch.setattr(pure, "_colorable_excluding", recording)
    for n in range(1, 10):
        rows = complete_graph(n).rows
        assert pure.chromatic_number(n, rows) == n
        assert pure.top_components(n, rows) == (n, ((1 << n) - 1,))
    k4k5 = disjoint(complete_graph(4), K5, complete_graph(4))
    assert pure.top_components(k4k5.n, k4k5.rows) == (5, (0b111110000,))
    assert tested == []
    for n, rows in corpus():
        pure.chromatic_number(n, rows)
        pure.top_components(n, rows)
    assert tested and all(k < size for size, k in tested)


# ---------------------------------------------------------------------------
# planar (pure only): differential fuzz against networkx, Kuratowski
# subdivisions spliced in
# ---------------------------------------------------------------------------


def grid(a, b, diagonals=False):
    """The a x b grid, each square split by a diagonal when `diagonals`."""
    at = lambda i, j: i * b + j  # noqa: E731
    edges = [(at(i, j), at(i, j + 1)) for i in range(a) for j in range(b - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(a - 1) for j in range(b)]
    if diagonals:
        edges += [(at(i, j), at(i + 1, j + 1)) for i in range(a - 1) for j in range(b - 1)]
    return Graph.build(a * b, edges)


def wheel(k):
    """A hub 0 joined to every vertex of the cycle 1..k."""
    return Graph.build(k + 1, [(0, i) for i in range(1, k + 1)]
                       + [(i, i % k + 1) for i in range(1, k + 1)])


def fan_triangulation(k):
    """The cycle 0..k-1 triangulated by chords from 0."""
    return Graph.build(k, [(i, (i + 1) % k) for i in range(k)] + [(0, i) for i in range(2, k - 1)])


PLANAR_HOSTS = {
    "grid": lambda rng: grid(rng.randint(2, 6), rng.randint(2, 6)),
    "triangulated grid": lambda rng: grid(rng.randint(2, 6), rng.randint(2, 6), True),
    "wheel": lambda rng: wheel(rng.randint(3, 30)),
    "fan": lambda rng: fan_triangulation(rng.randint(3, 30)),
}


@st.composite
def planarity_cases(draw):
    """(graph, known planarity or None), vertices shuffled.

    Either a G(n, p) graph with n <= 64 and mean degree around the planarity
    threshold, or a planar host (grid, wheel, triangulated cycle) with a few
    random edges added, or a host joined by two edges to a K5 or K3,3 with
    some edges subdivided, which is not planar.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    host = draw(st.sampled_from(["G(n,p)", *PLANAR_HOSTS]))
    if host == "G(n,p)":
        n = draw(st.integers(0, 64))
        degree = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0]))
        return Graph(n, random_rows(rng, n, min(1.0, degree / max(n - 1, 1)))), None
    g = PLANAR_HOSTS[host](rng)
    edges, n, known = g.edges(), g.n, None
    splice = draw(st.sampled_from([None, "K5", "K3,3"]))
    if splice:
        k = complete_graph(5) if splice == "K5" else complete_bipartite(3, 3)
        for e in k.edges():
            if rng.random() < 0.5:
                k = k.subdivide_edge(e, rng.randint(1, 2))
        edges += [(n + u, n + v) for u, v in k.edges()]
        edges += [(rng.randrange(n), n + rng.randrange(k.n)) for _ in range(2)]
        n += k.n
        known = False
    else:
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    order = list(range(n))
    rng.shuffle(order)
    return Graph.build(n, [(order[u], order[v]) for u, v in edges]), known


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=planarity_cases())
@example(case=(Graph.build(0, []), True))
@example(case=(complete_graph(5), False))
@example(case=(complete_bipartite(3, 3), False))
@example(case=(petersen(), False))
@example(case=(grid(8, 8, True), True))  # 64 vertices
@example(case=(complete_graph(64), False))
def test_planar_matches_networkx(case):
    g, known = case
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    expected = nx.check_planarity(nxg)[0]
    assert known in (None, expected)
    assert pure.planar(g.n, g.rows) == expected


# ---------------------------------------------------------------------------
# canonical augmentation: children
# ---------------------------------------------------------------------------


def children_of(kern, n, rows, max_degree):
    return kern.children(n, rows, max_degree, iso.canon_data(n, rows).generators)


def unreduced_children(n, rows, max_degree):
    """The reference for `children`: every child whose new vertex joins a
    subset of the vertices below the cap, labeled whole by iso.canon_data,
    with no pre-test and no orbit reduction; the sorted (key, rows) of those
    whose new vertex is in the last orbit, the first child per key."""
    cap = n if max_degree is None else max(-1, min(n, max_degree))
    eligible = [u for u in range(n) if rows[u].bit_count() < cap]
    masks = sorted(
        mask_of(c)
        for size in range(min(cap, len(eligible)) + 1)
        for c in itertools.combinations(eligible, size)
    )
    first = {}
    for x in masks:
        child = tuple([r | (x >> u & 1) << n for u, r in enumerate(rows)] + [x])
        data = iso.canon_data(n + 1, child)
        orbits = generated_orbits(n + 1, data.generators)
        if orbits[n] == orbits[data.perm.index(n)]:
            first.setdefault(data.key, child)
    return sorted(first.items())


def test_children_match_between_backends_through_order_7(built_ckern):
    """Every parent of order <= 7, unbounded and at max_degree 3 and 4."""
    for max_degree in (None, 3, 4):
        for n, level in generate.all_levels(7, max_degree).items():
            for _key, rows in level:
                want = children_of(pure, n, rows, max_degree)
                assert children_of(built_ckern, n, rows, max_degree) == want, (rows, max_degree)


@st.composite
def augmentation_parents(draw):
    """(n, rows, max_degree): G(n, p) parents, or shuffled unions of up to
    four pieces with the largest one repeated; n <= 12, and n <= 9 without
    a degree bound, which leaves 2^n neighbor subsets to label.  Pieces of
    at most 8 vertices have one-byte rows, so explicit examples cover the
    byte order of pack_key."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    max_degree = draw(st.sampled_from([None, 2, 3, 4]))
    limit = 9 if max_degree is None else 12
    if draw(st.booleans()):
        n = draw(st.integers(0, limit))
        return n, random_rows(rng, n, draw(st.sampled_from([0.1, 0.25, 0.4, 0.7]))), max_degree
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
            lambda sizes: sum(sizes) + max(sizes) <= limit
        )
    )
    pieces = [random_rows(rng, k, 0.5) for k in sizes]
    pieces.append(pieces[sizes.index(max(sizes))])
    g = disjoint(*(Graph(len(rows), rows) for rows in pieces))
    order = rng.sample(range(g.n), g.n)
    return g.n, apply_perm(g.n, g.rows, order), max_degree


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parent=augmentation_parents())
@example(parent=(0, (), None))
@example(parent=(6, disjoint(K3, K3).rows, None))
@example(parent=(12, disjoint(K3, K3, K3, K3).rows, 4))
@example(parent=(9, disjoint(complete_graph(1), K3, K5).rows, 4))
# two 9-vertex pieces of minimum degree 2, whose canonical rows take two
# bytes each and come in one order by little-endian pack_key and in the
# other by big-endian, and a P9 whose ends close it to the last piece, C10
@example(parent=(27, disjoint(
    Graph(9, (448, 224, 248, 164, 36, 30, 263, 271, 193)),
    Graph(9, (40, 196, 290, 337, 232, 405, 26, 306, 172)),
    path_graph(9),
).rows, 2))
def test_children_match_the_unreduced_expansion(built_ckern, parent):
    """Both backends' children against every child labeled by canon_data,
    which runs on the built module here."""
    n, rows, max_degree = parent
    got = children_of(pure, n, rows, max_degree)
    assert children_of(built_ckern, n, rows, max_degree) == got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_active", built_ckern)
        assert got == unreduced_children(n, rows, max_degree)


def test_children_of_the_largest_parents(built_ckern):
    """Parents of order 62 and 63 with few vertices below the cap: children
    of 63 and 64 vertices, keyed in graph6's long form."""
    k1 = complete_graph(1)
    for g, max_degree, count in (
        (path_graph(62), 2, 1),  # C63 only: a new end is never last
        (path_graph(63), 2, 1),
        (disjoint(k1, cycle_graph(61), k1), 1, 0),  # no piece outgrows C61
        (disjoint(k1, k1, cycle_graph(61)), 1, 0),
        (disjoint(k1, path_graph(62)), 2, 1),  # C63 + K1
        (path_graph(63), -5, 0),
    ):
        gens = iso.canon_data(g.n, g.rows).generators
        got = pure.children(g.n, g.rows, max_degree, gens)
        assert built_ckern.children(g.n, g.rows, max_degree, gens) == got
        assert got == unreduced_children(g.n, g.rows, max_degree)
        assert len(got) == count, g


def test_children_jump_over_subsets_above_the_cap(built_ckern):
    """Parents with 30 vertices below a cap of at most 2, and P30 below a
    cap of 3: a walk through every subset of them takes 2^30 steps for 466
    (4,526) admissible ones, and the pure one ends in seconds only because it
    steps through the subsets of each size up to the cap alone.  Both
    backends agree with the unreduced expansion."""
    k1, k2 = complete_graph(1), path_graph(2)
    started = time.monotonic()
    for g, max_degree in (
        (disjoint(*[k2] * 15), 2),
        (disjoint(*[k2] * 13, k1, k1, k1, k1), 2),
        (Graph.build(30, []), 2),
        (Graph.build(30, []), 1),
        (path_graph(30), 3),
    ):
        gens = iso.canon_data(g.n, g.rows).generators
        got = pure.children(g.n, g.rows, max_degree, gens)
        assert built_ckern.children(g.n, g.rows, max_degree, gens) == got
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_active", built_ckern)
            assert got == unreduced_children(g.n, g.rows, max_degree), (g, max_degree)
    assert time.monotonic() - started < 60


def test_pure_children_label_each_parent_component_once(monkeypatch):
    """A disconnected child labels only its new vertex's piece; each parent
    component it leaves alone is labeled once per parent, on first use."""
    parent = disjoint(K3, K3, path_graph(3), complete_graph(1))
    gens = iso.canon_data(parent.n, parent.rows).generators
    labeled = []
    canon = pure._canon

    def recording(n, rows, *last):
        labeled.append(tuple(rows))
        return canon(n, rows, *last)

    monkeypatch.setattr(pure, "_canon", recording)
    got = pure.children(parent.n, parent.rows, None, gens)
    # no piece that holds the new vertex has 3 vertices, so these calls
    # label parent components: each K3 once, P3 once
    assert sorted(rows for rows in labeled if len(rows) == 3) == [(2, 5, 2), (6, 5, 3), (6, 5, 3)]
    assert got == unreduced_children(parent.n, parent.rows, None)


def children_calls(kern):
    """One children call per kind of malformed argument, and some extreme
    valid ones; P3 is (2, 5, 2), with generators ((2, 1, 0),)."""
    p3, gens = (2, 5, 2), ((2, 1, 0),)
    return [
        lambda: kern.children(-1, (), None, ()),
        lambda: kern.children(64, (0,) * 64, None, ()),
        lambda: kern.children(1 << 70, (), None, ()),
        lambda: kern.children(-1 << 70, (), None, ()),
        lambda: kern.children(3.0, p3, None, gens),
        lambda: kern.children(3, (2, 5, 8), None, gens),
        lambda: kern.children(3, (2, -1, 2), None, gens),
        lambda: kern.children(3, (2, 1 << 64, 2), None, gens),
        lambda: kern.children(3, (2, 5.0, 2), None, gens),
        lambda: kern.children(3, (2, 5), None, gens),
        lambda: kern.children(3, 7, None, gens),
        lambda: kern.children(3, p3, 2.0, gens),
        lambda: kern.children(3, p3, "2", gens),
        lambda: kern.children(3, p3, None, 5),
        lambda: kern.children(3, p3, None, (5,)),
        lambda: kern.children(3, p3, None, ((2, 1),)),
        lambda: kern.children(3, p3, None, ((2, 1, 0, 3),)),
        lambda: kern.children(3, p3, None, ((0, 0, 1),)),
        lambda: kern.children(3, p3, None, ((2, 1, 3),)),
        lambda: kern.children(3, p3, None, ((2, 1, -1),)),
        lambda: kern.children(3, p3, None, ((2, 1, 1 << 70),)),
        lambda: kern.children(3, p3, None, ((2, 1, 0), (3, 1, 0.0))),
        lambda: kern.children(3, p3, None, ((0, 1, 2), (2, 1, 0))),
        lambda: kern.children(3, [2, 5, 2, 99], 1 << 70, [[2, 1, 0]]),
        lambda: kern.children(3, p3, -1 << 70, gens),
        lambda: kern.children(0, (), 0, ()),
        # permutations that are no automorphism: of K2 + K1 and of K2 + 2K1;
        # each generator is checked whole before the next
        lambda: kern.children(3, (4, 0, 1), None, ((0, 2, 1),)),
        lambda: kern.children(4, (8, 0, 0, 1), None, ((0, 1, 3, 2),)),
        lambda: kern.children(3, (4, 0, 1), None, ((0, 2, 1), (0, 0, 1))),
        lambda: kern.children(3, (4, 0, 1), None, ((0, 0, 1), (0, 2, 1))),
    ]


def test_children_check_their_arguments_alike(built_ckern):
    """Both backends reject each malformed argument with the same error type
    and message, in the same order, and agree on the extreme valid ones."""
    outcomes = [kernel_outcome(call) for call in children_calls(pure)]
    assert outcomes == [kernel_outcome(call) for call in children_calls(built_ckern)]
    order = ("ValueError", "parent order outside 0..63")
    perm = ("ValueError", "generator that is not a permutation of 0..n-1")
    assert outcomes[:4] == [order] * 4
    assert outcomes[4] == outcomes[8] == outcomes[11] == outcomes[21] == NOT_AN_INT
    assert outcomes[5:8] == [ROW_ERROR] * 3
    assert outcomes[9] == ("IndexError", "tuple index out of range")
    assert outcomes[12] == ("TypeError", "'str' object cannot be interpreted as an integer")
    assert outcomes[14:21] == [("TypeError", "'int' object is not iterable")] + [perm] * 6
    assert outcomes[22] == outcomes[23] == pure.children(3, (2, 5, 2), None, ())
    assert outcomes[24] == []
    assert outcomes[25] == [(b"@", (0,))]
    aut = ("ValueError", "generator that is not an automorphism of the parent")
    assert outcomes[26:] == [aut, aut, aut, perm]
    # the true generators give 4 and 7 classes; the false ones dropped one
    for n, rows, count in ((3, (4, 0, 1), 4), (4, (8, 0, 0, 1), 7)):
        assert len(children_of(pure, n, rows, None)) == count
