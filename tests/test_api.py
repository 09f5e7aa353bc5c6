"""The public API: the exported names, a library that holds only code and
class members its entry points reach, a library that runs without the test
oracles or mpmath, and a library and CLI that neither import nor load
scipy."""

import ast
import inspect
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

# every subcommand, each solver of `spectrum` and the CSV of `scaling`
_SUBCOMMANDS = """
DISK, STAR = '{"type":"disk","R":1.0}', '{"type":"star","coeffs":[1.0,0.1]}'
SUBCOMMANDS = [
    ["spectrum", "--region", DISK, "--B", "1", "--levels", "upto:1", "--L", "2"],
    ["spectrum", "--region", STAR, "--B", "1", "--levels", "upto:0", "--L", "1",
     "--solver", "nystrom2d"],
    ["spectrum", "--region", DISK, "--B", "1", "--levels", "upto:0", "--L", "1",
     "--solver", "both"],
    ["scaling", "--region", DISK, "--B", "1", "--levels", "upto:0",
     "--alpha", "1", "--L-min", "4", "--L-max", "8", "--csv", "scaling.csv"],
    ["coeff", "--levels", "single:0", "--f", "renyi:1"],
    ["verify", "--suite", "all", "--cases", "5"],
    ["rocca", "--region", DISK, "--vectors", "[[1,0]]",
     "--eps-min-exp", "3", "--eps-max-exp", "4"],
    ["rocca", "--region", '{"type":"polygon","vertices":[[0,0],[1,0],[1,1],[0,1]]}',
     "--vectors", "[[1,0]]", "--eps-min-exp", "3", "--eps-max-exp", "4"],
]
"""

_NO_SCIPY = """
import sys

sys.modules["scipy"] = None
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy imported although it was blocked")
from lle.cli import main
""" + _SUBCOMMANDS + """
for argv in SUBCOMMANDS:
    assert main(argv) == 0, argv
"""

_SCIPY_UNLOADED = """
import sys

from lle.cli import main
""" + _SUBCOMMANDS + """
for argv in SUBCOMMANDS:
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
"""

_COEFF_NO_SCIPY = """
import sys

sys.modules["scipy"] = None
import lle
from lle.cli import main
assert main(["coeff", "--levels", "single:2,upto:3",
             "--f", "renyi:1,renyi:0.5,gtilde"]) == 0
print(lle.coeff_with_error(lle.LevelSelector.upto(2),
                           [lle.SpectralFunction.renyi(2.0)])[0][0])
"""


def test_public_names_resolve():
    assert len(set(lle.__all__)) == len(lle.__all__)
    assert [name for name in lle.__all__ if not hasattr(lle, name)] == []


def test_every_spectral_route_takes_the_same_arguments():
    # (setup, selector, region, L, cutoff=): a route is swapped for another
    # by name alone, as `lle spectrum --solver` does
    def params(fn):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()]
    assert params(lle.region_spectrum) == params(lle.disk_spectrum)


def _library_definitions():
    """Module-level functions, classes and constants of src/lle, keyed by
    (module, name), and each module's relative-import bindings, at module
    level or inside a function: a local name maps to a (module, name)
    definition or, for `from . import m`, to (m,)."""
    defs, binds = {}, {}
    for path in sorted(_SRC.glob("*.py")):
        mod = path.stem
        binds[mod] = {}
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
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


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the script first checks that `import scipy` fails inside it
    proc = _run_fresh(_NO_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scaling.csv").is_file()


def test_no_subcommand_loads_scipy(tmp_path):
    proc = _run_fresh(_SCIPY_UNLOADED, tmp_path)
    assert proc.returncode == 0, proc.stderr


def _library_imports(packages):
    """Every absolute import of one of `packages` in the library, at any
    depth: module level and inside functions."""
    found = []
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in packages]
    return found


def test_no_library_module_imports_scipy():
    found = _library_imports({"scipy"})
    assert not found, f"scipy imports in the library: {found}"


def test_no_library_module_imports_threads():
    # every request runs on the calling thread: no route starts a pool
    found = _library_imports({"concurrent", "threading", "multiprocessing"})
    assert not found, f"thread or process pool imports in the library: {found}"


_IDENTITIES_ON_DEMAND = """
import sys

from lle.cli import main
""" + _SUBCOMMANDS + """
for argv in SUBCOMMANDS:
    if argv[0] != "verify":
        assert main(argv) == 0, argv
        assert "lle.identities" not in sys.modules, argv
assert main(["verify", "--suite", "mehler", "--cases", "5"]) == 0
assert "lle.identities" in sys.modules
"""


def test_only_verify_loads_the_identity_suites(tmp_path):
    proc = _run_fresh(_IDENTITIES_ON_DEMAND, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_coeff_runs_without_scipy(tmp_path):
    proc = _run_fresh(_COEFF_NO_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) > 0.0
