"""The low packages import in one direction, and ``import repro`` loads nothing.

``utils < gp < backend < nn < core < acquisition``: a module imports only
its own package and packages to its left.  A slice worker imports the
NN-GP engine and nothing else, so it never loads the BO stack above it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

LAYERS = ("utils", "gp", "backend", "nn", "core", "acquisition")


def _imported_packages(node: ast.AST, package: str):
    """The ``repro`` subpackages an import statement names (``""``: the root)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 1:  # ``from . import x`` stays in the package
            names = [f"repro.{package}"]
        elif node.level > 1:
            names = [f"repro.{module}"]
        elif module == "repro":
            names = [f"repro.{alias.name}" for alias in node.names]
        else:
            names = [module]
    else:
        return []
    parts = [name.split(".") for name in names]
    return [p[1] if len(p) > 1 else "" for p in parts if p[0] == "repro"]


def test_low_packages_import_nothing_above_them():
    upward = []
    for rank, package in enumerate(LAYERS):
        allowed = set(LAYERS[: rank + 1])
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                for target in _imported_packages(node, package):
                    if target not in allowed:
                        where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
                        upward.append(f"{where} imports repro.{target}".rstrip("."))
    assert not upward, "imports above the module's layer:\n" + "\n".join(upward)
    root = ast.parse((SRC / "__init__.py").read_text())
    eager = [
        node.lineno
        for statement in root.body
        if not isinstance(statement, ast.FunctionDef)
        for node in ast.walk(statement)
        if _imported_packages(node, "")
    ]
    assert not eager, f"repro/__init__.py imports repro at module level: lines {eager}"


_PROBE = """\
import json, sys
import repro
bare = sorted(name for name in sys.modules if name.startswith("repro."))
from repro.core.slice_workers import serve
import repro.core.trainer
print(json.dumps([bare, sorted(sys.modules)]))
"""

#: what a slice worker must not load: the BO stack and the optimizers'
#: scipy modules
_ABOVE_THE_ENGINE = (
    "repro.bo",
    "repro.acquisition",
    "repro.baselines",
    "repro.farm",
    "repro.service",
    "repro.sim",
    "repro.circuits",
    "scipy.optimize",
    "scipy.special",
    "scipy.stats",
)


def _run_fresh(code: str):
    """The JSON that ``code`` prints when run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _inside(modules, packages) -> list:
    """The ``modules`` that are one of ``packages`` or inside one."""
    return [
        name
        for name in modules
        if any(name == top or name.startswith(top + ".") for top in packages)
    ]


def test_slice_worker_imports_only_the_engine():
    bare, loaded = _run_fresh(_PROBE)
    assert bare == [], f"import repro loaded {bare}"
    above = _inside(loaded, _ABOVE_THE_ENGINE)
    assert not above, f"the slice worker's imports loaded {above}"


_ROOT_PROBE = """\
import json, sys
from repro import NNBO, Study, SurrogateConfig
print(json.dumps(sorted(sys.modules)))
"""

#: what the BO stack's root names must not load
_BESIDE_THE_BO_STACK = (
    "repro.api",
    "repro.service",
    "repro.farm",
    "repro.sim",
    "repro.circuits",
    "repro.baselines",
    "repro.core",
)


def test_root_names_load_only_their_package():
    beside = _inside(_run_fresh(_ROOT_PROBE), _BESIDE_THE_BO_STACK)
    assert not beside, f"from repro import NNBO, Study, SurrogateConfig loaded {beside}"
    import repro.api
    import repro.gp

    for name in repro.__all__:
        if name != "__version__":
            home = repro.api if name in repro.api.__all__ else repro.gp
            assert getattr(repro, name) is getattr(home, name), name
