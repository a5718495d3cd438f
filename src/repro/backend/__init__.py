"""Pluggable array backends for the stacked surrogate engine.

The engine (``repro.nn.batched``, ``repro.core.batched_gp``,
``repro.core.trainer``) codes against a small array-namespace contract
(:mod:`repro.backend.base`) instead of numpy directly, so the identical
stacked tensor program runs on:

* ``"numpy"`` — the default and reference path, bitwise identical to the
  pre-backend engine (its namespace ops *are* the numpy functions);
* ``"torch"`` — PyTorch tensors on CPU or CUDA (soft dependency);
* ``"cupy"`` — CuPy arrays on CUDA (soft dependency);
* ``"auto"`` — the first importable accelerator backend (torch, then
  cupy), falling back to numpy.

Use :func:`get_namespace` to obtain a namespace and pass it (or just the
name) to :class:`~repro.core.batched_gp.SurrogateBank` /
:class:`~repro.bo.config.SurrogateConfig` via their ``backend`` argument.
"""

from __future__ import annotations

from importlib import util as _importlib_util

from repro.backend.base import ArrayNamespace

BACKEND_NAMES = ("numpy", "torch", "cupy")

#: pip package that provides each soft-dependency backend
_BACKEND_PACKAGES = {"torch": "torch", "cupy": "cupy"}

#: preference order used by ``backend="auto"``
_AUTO_ORDER = ("torch", "cupy", "numpy")


class BackendNotAvailable(ImportError):
    """A requested array backend's package is not installed.

    Carries ``backend`` (the requested name) and ``package`` (the pip
    distribution that provides it); the message names both so the fix is
    obvious from the traceback alone.  ``code`` is the stable wire error
    code the BO service maps this exception to.
    """

    #: stable error code (wire-safe kebab-case identifier)
    code = "backend-not-available"

    def __init__(self, backend: str, package: str):
        self.backend = str(backend)
        self.package = str(package)
        super().__init__(
            f"array backend {self.backend!r} requires the {self.package!r} "
            f"package, which is not installed; install it "
            f"(e.g. `pip install {self.package}`) or select backend='numpy'"
        )


def _package_importable(name: str) -> bool:
    try:
        return _importlib_util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def available_backends() -> tuple[str, ...]:
    """Backend names usable right now (numpy always; others if importable)."""
    names = ["numpy"]
    for name, package in _BACKEND_PACKAGES.items():
        if _package_importable(package):
            names.append(name)
    return tuple(names)


def get_namespace(name: str | None = "numpy", device: str | None = None) -> ArrayNamespace:
    """Construct the array namespace for ``name``.

    ``name`` is one of ``"numpy"`` (default; ``None`` means numpy),
    ``"torch"``, ``"cupy"``, or ``"auto"`` (first importable of torch,
    cupy, numpy).  ``device`` selects the accelerator device (e.g.
    ``"cuda:0"``; numpy accepts only ``"cpu"``).

    Raises :class:`BackendNotAvailable` when an explicitly requested
    soft-dependency backend is not importable — ``"auto"`` never raises,
    it falls back to numpy.
    """
    if name is None:
        name = "numpy"
    name = str(name).lower()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            if candidate == "numpy" or _package_importable(
                _BACKEND_PACKAGES[candidate]
            ):
                return get_namespace(candidate, device)
    if name == "numpy":
        from repro.backend.numpy_backend import NumpyNamespace

        return NumpyNamespace(device=device)
    if name == "torch":
        try:
            from repro.backend.torch_backend import TorchNamespace
        except ImportError as exc:
            raise BackendNotAvailable("torch", _BACKEND_PACKAGES["torch"]) from exc
        return TorchNamespace(device=device)
    if name == "cupy":
        try:
            from repro.backend.cupy_backend import CupyNamespace
        except ImportError as exc:
            raise BackendNotAvailable("cupy", _BACKEND_PACKAGES["cupy"]) from exc
        return CupyNamespace(device=device)
    raise ValueError(
        f"unknown array backend {name!r}; choose from "
        f"{('auto',) + BACKEND_NAMES}"
    )


_DEFAULT_NAMESPACE: ArrayNamespace | None = None


def default_namespace() -> ArrayNamespace:
    """The shared default (plain numpy) namespace singleton."""
    global _DEFAULT_NAMESPACE
    if _DEFAULT_NAMESPACE is None:
        _DEFAULT_NAMESPACE = get_namespace("numpy")
    return _DEFAULT_NAMESPACE


def resolve_namespace(backend) -> ArrayNamespace:
    """Normalize a ``backend`` argument into a namespace object.

    Accepts ``None`` (the default numpy singleton), a backend name
    string, or an already-constructed :class:`ArrayNamespace` (passed
    through unchanged, so callers can share one configured namespace
    across models).
    """
    if backend is None:
        return default_namespace()
    if isinstance(backend, str):
        return get_namespace(backend)
    if isinstance(backend, ArrayNamespace):
        return backend
    raise TypeError(
        f"backend must be None, a backend name, or an ArrayNamespace, "
        f"got {type(backend).__name__}"
    )


__all__ = [
    "ArrayNamespace",
    "BACKEND_NAMES",
    "BackendNotAvailable",
    "available_backends",
    "default_namespace",
    "get_namespace",
    "resolve_namespace",
]
