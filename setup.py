from setuptools import Extension, setup

# optional: without a working C compiler the package still installs, with
# the pure-Python kernels only.
setup(
    ext_modules=[
        Extension(
            "chromastab.kernels._ckern",
            sources=["src/chromastab/kernels/_ckern.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
