import os
import warnings

from setuptools import Extension, setup

KERNEL = "chromastab.kernels._ckern"
SOURCE = "src/chromastab/kernels/_ckern"

ext_modules = []
try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None
if cythonize is not None:
    ext_modules = cythonize(
        [Extension(KERNEL, sources=[SOURCE + ".pyx"], extra_compile_args=["-O3"])],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
            "initializedcheck": False,
        },
    )
elif os.path.exists(SOURCE + ".c"):
    # No Cython: compile the shipped generated C file as it is.
    ext_modules = [
        Extension(KERNEL, sources=[SOURCE + ".c"], extra_compile_args=["-O3"])
    ]
else:
    warnings.warn(
        "neither Cython nor the generated _ckern.c is available; "
        "installing the pure-Python kernels only"
    )

setup(ext_modules=ext_modules)
