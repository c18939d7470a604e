import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from chromastab import generate, kernels, verify
from chromastab.graph import UnionFind
from chromastab.kernels import pure

JOBS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def jobs():
    return JOBS


@pytest.fixture(scope="session")
def s9_catalog():
    """The 30-entry order-9 catalog; shared across the whole suite, and with
    the verifiers that read it."""
    return verify._family_catalog(JOBS)


@pytest.fixture(scope="session")
def levels_through_8():
    """Every isomorphism class of orders 1..8 (unbounded), cached."""
    return generate.all_levels(8)


def generated_orbits(n, gens):
    """vertex -> smallest vertex of its orbit under the group gens generate."""
    uf = UnionFind(n)
    for gen in gens:
        for v in range(n):
            uf.union(v, gen[v])
    return tuple(uf.find(v) for v in range(n))


def have_c_toolchain():
    """A C compiler on PATH and the headers to build a CPython extension."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return shutil.which(cc) is not None and header.exists()


@pytest.fixture(scope="session")
def built_ckern(tmp_path_factory):
    """_ckern.c built out of tree, once per session, and loaded; the working
    tree stays clean.  Skips only without a C toolchain; a failed build fails."""
    if not have_c_toolchain():
        pytest.skip("no C compiler or no Python.h")
    tmp_path = tmp_path_factory.mktemp("ckern")
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
    return ck


@pytest.fixture(params=["pure", "built"])
def backend(request):
    """Each kernel module in turn: pure, then the build of _ckern.c."""
    return pure if request.param == "pure" else request.getfixturevalue("built_ckern")


@pytest.fixture()
def pure_backend():
    kernels.set_backend("pure")
    yield kernels.active()
    kernels.set_backend("auto")
