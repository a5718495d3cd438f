"""Every literal optimizer/config call in the shipped code and docs binds.

No tier-1 test runs ``examples/`` or ``benchmarks/`` or README.md's
snippets, so a keyword that an optimizer or a typed config no longer
accepts would only surface when someone runs the script or copies the
snippet.  This test parses ``src/``, ``examples/``, ``benchmarks/`` and
README.md's python blocks and binds the literal arguments of every call
to the optimizers, :class:`~repro.bo.study.Study` and the config
dataclasses against the live signature.
"""

import ast
import inspect
import re
import textwrap
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
SCANNED = ("src", "examples", "benchmarks", "README.md")
# a fenced python block; list-item blocks are indented, fences included
README_BLOCK = re.compile(r"^( *)```python\n(.*?)^\1```", re.MULTILINE | re.DOTALL)
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


def _sources(top: str):
    """``(path, first line, python source)`` for each scanned unit."""
    if top == "README.md":
        text = (ROOT / top).read_text()
        for block in README_BLOCK.finditer(text):
            first = text.count("\n", 0, block.start(2)) + 1
            yield Path(top), first, textwrap.dedent(block.group(2))
        return
    for path in sorted((ROOT / top).rglob("*.py")):
        yield path.relative_to(ROOT), 1, path.read_text()


def _call_sites(top: str):
    """``(path, line, call)`` for every call to a checked class."""
    for path, first, source in _sources(top):
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.Call) and _callee(node) in CHECKED:
                yield path, first + node.lineno - 1, node


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
    assert any(True for _ in _call_sites(top)), f"no checked calls in {top}"


@pytest.mark.parametrize("top", SCANNED)
def test_literal_arguments_bind(top):
    failures = [
        f"{path}:{line}: {_callee(node)}(...): {error}"
        for path, line, node in _call_sites(top)
        if (error := _bind_error(node)) is not None
    ]
    assert not failures, "stale call sites:\n" + "\n".join(failures)
