"""The public API: the exported names, a library that holds only code and
class members its entry points reach, a library that runs without the test
oracles or mpmath, and identity and translate-intersection routes that run
without scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lle

_SRC = Path(lle.__file__).parent

_STANDALONE = """
import importlib.util
import sys

sys.modules["mpmath"] = None
assert importlib.util.find_spec("oracles") is None
import lle
from lle.cli import main
assert main(["coeff", "--levels", "single:0", "--f", "renyi:1"]) == 0
sys.exit(main(["verify", "--suite", "all", "--cases", "5"]))
"""

_NO_SCIPY = """
import sys

sys.modules["scipy"] = None
from lle.cli import main
assert main(["verify", "--suite", "all", "--cases", "5"]) == 0
for region in ('{"type":"disk","R":1.0}',
               '{"type":"polygon","vertices":[[0,0],[1,0],[1,1],[0,1]]}'):
    assert main(["rocca", "--region", region, "--vectors", "[[1,0]]",
                 "--eps-min-exp", "3", "--eps-max-exp", "4"]) == 0
try:
    main(["coeff", "--levels", "single:0", "--f", "renyi:1"])
except ImportError:
    sys.exit(0)
sys.exit("coeff ran although scipy was blocked")
"""


def test_public_names_resolve():
    assert len(set(lle.__all__)) == len(lle.__all__)
    assert [name for name in lle.__all__ if not hasattr(lle, name)] == []


def _library_definitions():
    """Module-level functions, classes and constants of src/lle, keyed by
    (module, name), and each module's relative-import bindings: a local name
    maps to a (module, name) definition or, for `from . import m`, to (m,)."""
    defs, binds = {}, {}
    for path in sorted(_SRC.glob("*.py")):
        mod = path.stem
        binds[mod] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name,)
                    binds[mod][alias.asname or alias.name] = target
    return defs, binds


def _reached_definitions():
    """The definitions of `_library_definitions` and the keys of those reached
    from lle.cli.main and the names lle.__all__ exports, by walking the Name
    and Attribute references of each reached definition."""
    defs, binds = _library_definitions()

    def resolve(mod, name):
        while (mod, name) not in defs and name in binds[mod]:
            target = binds[mod][name]
            if len(target) == 1:
                return None
            mod, name = target
        return (mod, name) if (mod, name) in defs else None

    roots = [("cli", "main")] + [resolve("__init__", n) for n in lle.__all__]
    reached, todo = set(), [r for r in roots if r is not None]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        mod = key[0]
        for node in ast.walk(defs[key]):
            found = None
            if isinstance(node, ast.Name):
                found = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = binds[mod].get(node.value.id)
                if target is not None and len(target) == 1:
                    found = resolve(target[0], node.attr)
            if found is not None:
                todo.append(found)
    return defs, reached


def test_every_library_definition_is_reached_from_the_entry_points():
    defs, reached = _reached_definitions()
    unreached = sorted(f"{mod}.{name}" for mod, name in defs
                       if (mod, name) not in reached and not name.startswith("__"))
    assert not unreached, f"no entry point reaches {unreached}"


def test_every_internal_class_member_is_used_by_a_reached_definition():
    # lle.__all__ exports its classes' members as API; the methods and
    # properties of any other class must be read, by attribute name, in some
    # definition the entry points reach
    defs, reached = _reached_definitions()
    used = {node.attr for key in reached for node in ast.walk(defs[key])
            if isinstance(node, ast.Attribute)}
    unused = sorted(f"{mod}.{name}.{item.name}"
                    for (mod, name), node in defs.items()
                    if isinstance(node, ast.ClassDef) and name not in lle.__all__
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__") and item.name not in used)
    assert not unused, f"no reached definition uses {unused}"


def _run_fresh(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that finds lle but not tests/."""
    env = dict(os.environ, PYTHONPATH=str(Path(lle.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_library_runs_without_oracles_or_mpmath(tmp_path):
    proc = _run_fresh(_STANDALONE, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert '"renyi:1"' in proc.stdout


def test_verify_and_rocca_run_without_scipy(tmp_path):
    # the spectral routes need scipy, so the coeff call proves the block holds
    proc = _run_fresh(_NO_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
