"""Every literal optimizer/config call in the shipped code binds.

No tier-1 test runs ``examples/`` or ``benchmarks/``, so a keyword that
an optimizer or a typed config no longer accepts would only surface when
someone runs the script.  This test parses ``src/``, ``examples/`` and
``benchmarks/`` and binds the literal arguments of every call to the
optimizers, :class:`~repro.bo.study.Study` and the config dataclasses
against the live signature.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.acquisition.spaces import TrustRegionConfig
from repro.baselines import WEIBO
from repro.bo.config import (
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
)
from repro.bo.loop import SurrogateBO
from repro.bo.study import Study
from repro.core import NNBO

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks")
CHECKED = {
    cls.__name__: cls
    for cls in (
        NNBO,
        SurrogateBO,
        WEIBO,
        Study,
        AcquisitionConfig,
        FarmConfig,
        SchedulerConfig,
        SpeculationConfig,
        SurrogateConfig,
        TrustRegionConfig,
    )
}


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _call_sites(top: str):
    for path in sorted((ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in CHECKED:
                yield path.relative_to(ROOT), node


def _bind_error(node: ast.Call) -> str | None:
    """Why the call's literal arguments do not bind, or ``None``."""
    cls = CHECKED[_callee(node)]
    # ``*args`` / ``**kwargs`` splats are opaque to a static scan
    n_positional = (
        0
        if any(isinstance(arg, ast.Starred) for arg in node.args)
        else len(node.args)
    )
    keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
    try:
        inspect.signature(cls).bind_partial(*[None] * n_positional, **keywords)
    except TypeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("top", SCANNED)
def test_scan_sees_call_sites(top):
    # guards the scanner itself: an empty scan would pass vacuously
    assert any(True for _ in _call_sites(top)), f"no checked calls in {top}/"


@pytest.mark.parametrize("top", SCANNED)
def test_literal_arguments_bind(top):
    failures = [
        f"{path}:{node.lineno}: {_callee(node)}(...): {error}"
        for path, node in _call_sites(top)
        if (error := _bind_error(node)) is not None
    ]
    assert not failures, "stale call sites:\n" + "\n".join(failures)
