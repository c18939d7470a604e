"""Kernel backend selection: compiled extension when built, else pure Python."""

from __future__ import annotations

from chromastab.kernels import pure

try:
    from chromastab.kernels import _ckern as _compiled
except ImportError:
    _compiled = None

_active = _compiled if _compiled is not None else pure


def active():
    """The kernel module currently in use."""
    return _active


def backend_name() -> str:
    return _active.BACKEND


def have_compiled() -> bool:
    return _compiled is not None


def set_backend(name: str):
    """Force a backend ("pure", "compiled" or "auto"); used by tests and benchmarks."""
    global _active
    if name == "pure":
        _active = pure
    elif name == "compiled":
        if _compiled is None:
            raise RuntimeError(
                "compiled kernel extension is not available; build it with "
                "`python setup.py build_ext --inplace`"
            )
        _active = _compiled
    elif name == "auto":
        _active = _compiled if _compiled is not None else pure
    else:
        raise ValueError(f"unknown backend {name!r}")
    return _active
