import hashlib
import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from chromastab import families, kernels
from chromastab.graph import path_graph
from chromastab.kernels import pure


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


# pure_outputs() of the reference kernels.  The compiled backend must
# reproduce these outputs bit for bit, so a refactor of pure.py keeps them.
PURE_OUTPUTS_DIGEST = "c72291d19d020a393fbd39184400f27fc9a9bac62b5846ab11d04068c984fc11"


def pure_outputs(kern=pure):
    """sha256 over a kernel module's outputs on the corpus: chi, colorings for
    k = 0..chi+1, both stability witness scans, canon_raw up to 7 vertices."""
    h = hashlib.sha256()
    for n, rows in corpus():
        chi = kern.chromatic_number(n, rows)
        out = [chi, [kern.color_graph(n, rows, k) for k in range(chi + 2)]]
        if chi >= 1:
            out.append(kern.stability_witnesses(n, rows, chi, False))
            out.append(kern.stability_witnesses(n, rows, chi, True))
        if n <= 7:
            out.append(kern.canon_raw(n, rows))
        h.update(repr(out).encode())
    return h.hexdigest()


def test_pure_outputs_are_pinned():
    assert pure_outputs() == PURE_OUTPUTS_DIGEST


@pytest.mark.parametrize("n", [-1, 65])
def test_pure_kernels_reject_vertex_counts_outside_0_64(n):
    rows = (0,) * max(n, 0)
    calls = [
        lambda: pure.deletion_colorable(n, rows, 0, 1),
        lambda: pure.color_graph(n, rows, 1),
        lambda: pure.greedy_clique_bound(n, rows),
        lambda: pure.chromatic_number(n, rows),
        lambda: pure.min_color_class_size(n, rows, 1),
        lambda: pure.stability_values(n, rows, 1),
        lambda: pure.stability_witnesses(n, rows, 1, False),
        lambda: pure.canon_raw(n, rows),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^vertex count outside 0\.\.64$"):
            call()


def have_c_toolchain():
    """A C compiler on PATH and the headers to build a CPython extension."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return shutil.which(cc) is not None and header.exists()


@pytest.mark.skipif(not have_c_toolchain(), reason="no C compiler or no Python.h")
def test_compiled_core_builds_and_matches_pure(tmp_path):
    """Build _ckern.c out of tree, load it, and hold it to the pure outputs."""
    root = Path(__file__).resolve().parent.parent
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
         "--build-temp", str(tmp_path / "temp")],
        cwd=root, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    so = lib / "chromastab" / "kernels" / ("_ckern" + suffix)
    assert so.exists(), build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("chromastab.kernels._ckern", so)
    ck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ck)
    assert ck.BACKEND == "compiled"

    assert pure_outputs(ck) == PURE_OUTPUTS_DIGEST
    for n, rows in corpus():
        chi = pure.chromatic_number(n, rows)
        assert ck.greedy_clique_bound(n, rows) == pure.greedy_clique_bound(n, rows)
        for k in (0, 1, 2, chi - 1, chi, chi + 1):
            for excluded in (0, 0x5555555555555555 & ((1 << n) - 1)):
                if k >= 0:
                    assert ck.deletion_colorable(
                        n, rows, excluded, k
                    ) == pure.deletion_colorable(n, rows, excluded, k)
        if chi >= 1:
            assert ck.stability_values(n, rows, chi) == pure.stability_values(n, rows, chi)
            assert ck.min_color_class_size(n, rows, chi) == pure.min_color_class_size(
                n, rows, chi
            )

    # both backends share the 0..64 vertex limit and the 62-vertex scan limit
    for kern in (pure, ck):
        with pytest.raises(ValueError, match=r"^vertex count outside 0\.\.64$"):
            kern.chromatic_number(65, (0,) * 65)
    path63 = path_graph(63).rows
    too_big = "^stability scans support at most 62 vertices$"
    for kern in (pure, ck):
        with pytest.raises(ValueError, match=too_big):
            kern.stability_values(63, path63, 2)
        with pytest.raises(ValueError, match=too_big):
            kern.stability_witnesses(63, path63, 2, False)


needs_compiled = pytest.mark.skipif(
    not kernels.have_compiled(), reason="compiled kernel extension not built"
)


@needs_compiled
def test_backends_agree_everywhere():
    ck = kernels.set_backend("compiled")
    try:
        for n, rows in corpus():
            chi = pure.chromatic_number(n, rows)
            assert ck.chromatic_number(n, rows) == chi
            for k in (0, 1, 2, chi - 1, chi, chi + 1):
                if k < 0:
                    continue
                assert pure.color_graph(n, rows, k) == ck.color_graph(n, rows, k)
                assert pure.deletion_colorable(n, rows, 0, k) == ck.deletion_colorable(
                    n, rows, 0, k
                )
            if chi >= 1:
                assert pure.stability_values(n, rows, chi) == ck.stability_values(
                    n, rows, chi
                )
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
    finally:
        kernels.set_backend("auto")


@needs_compiled
def test_backend_switch():
    assert kernels.set_backend("pure").BACKEND == "pure"
    assert kernels.set_backend("compiled").BACKEND == "compiled"
    assert kernels.set_backend("auto").BACKEND == "compiled"
    with pytest.raises(ValueError):
        kernels.set_backend("nope")


def test_proper_coloring_output(backend):
    for n, rows in corpus()[:80]:
        chi = backend.chromatic_number(n, rows)
        if chi == 0:
            continue
        colors = backend.color_graph(n, rows, chi)
        assert colors is not None
        for v in range(n):
            for u in range(v):
                if rows[v] >> u & 1:
                    assert colors[u] != colors[v]
        assert backend.color_graph(n, rows, chi - 1) is None


def test_greedy_clique_bound_is_a_lower_bound(backend):
    for n, rows in corpus()[:80]:
        chi = backend.chromatic_number(n, rows)
        assert backend.greedy_clique_bound(n, rows) <= (chi if n else 0)
