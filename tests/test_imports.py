"""Every module of the package uses each name it imports, every
module-level private name is used somewhere in the package, every name the
package exports is read by one of its modules or by README's library
example, every entry of the verification gate's THRESHOLDS is read by the
checks, and a CLI run imports no scipy module that only the tests need."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tumoropt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    names = _imported_names(tree)
    assert sorted(set(names) - _used_names(tree)) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _imported_names(tree)
    unused = sorted(set(imported) - _used_names(tree))
    assert not unused, [f"{path.name}:{imported[n]}: {n}" for n in unused]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names (`_x`, not dunders) bound at module level -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module, as variables or as attributes."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_the_check_sees_an_unused_private_name():
    tree = ast.parse("_A = 1\n_B, _C = _A, 2\ndef _f(): pass\n"
                     "def _g(): return _f() + _C\nclass _K: pass\n"
                     "__all__ = []\n_S: int = 0\n")
    unused = sorted(set(_private_definitions(tree)) - _referenced_names(tree))
    assert unused == ["_B", "_K", "_S", "_g"]


def test_every_private_name_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = [f"{name}:{line}: {private}" for name, tree in trees.items()
              for private, line in _private_definitions(tree).items()
              if private not in used]
    assert not unused, unused


def _threshold_keys(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Keys of the module's THRESHOLDS table, and those read from it as
    THRESHOLDS["key"]."""
    defined, read = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "THRESHOLDS"
                        for t in node.targets)):
            defined |= {key.value for key in node.value.keys}
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Name)
              and node.value.id == "THRESHOLDS"
              and isinstance(node.slice, ast.Constant)):
            read.add(node.slice.value)
    return defined, read


def test_the_check_sees_an_unread_and_a_missing_threshold():
    tree = ast.parse('THRESHOLDS = {"a": 1, "b": 2}\n'
                     'ok = THRESHOLDS["a"] < THRESHOLDS["c"]\n')
    defined, read = _threshold_keys(tree)
    assert (sorted(defined - read), sorted(read - defined)) == (["b"], ["c"])


def test_every_threshold_is_read_by_the_checks():
    path = SRC / "verify.py"
    defined, read = _threshold_keys(ast.parse(path.read_text(),
                                              filename=str(path)))
    assert defined, "verify.py defines no THRESHOLDS table"
    assert sorted(defined - read) == [], "defined but never read"
    assert sorted(read - defined) == [], "read but never defined"


# scipy.integrate and scipy.optimize serve only the tests' ODE oracle, and
# `verify` forks its tail with os.fork alone: a CLI run that imports any of
# them pays its start-up for nothing.  The guard prints the exit code, the
# number of forks and any such module the run imported.
GUARD = """\
import os
import sys
import tumoropt.cli
forks = []
fork = os.fork
def counted_fork():
    forks.append(None)
    return fork()
os.fork = counted_fork
code = tumoropt.cli.main(sys.argv[1:])
print(code, len(forks), *[m for m in ("scipy.integrate", "scipy.optimize",
                                      "multiprocessing") if m in sys.modules])
"""


def _guarded_run(tmp_path, command: str, config: str, sets) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, command,
         "--config", str(ROOT / "configs" / config),
         "--out-dir", str(tmp_path / "out"), "--quiet",
         *(arg for s in sets for arg in ("--set", s))],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_run_imports_no_test_only_scipy_module(tmp_path):
    assert _guarded_run(tmp_path, "simulate", "zero.yaml",
                        ["grid.shape=[9]", "time.steps=4"]) == ["0", "0"]


def test_cli_verify_forks_without_multiprocessing(tmp_path):
    from tumoropt.sensitivity import usable_cpus
    # a fresh 1-D verify has no other thread, so it forks on two CPUs
    forks = int(usable_cpus() >= 2)
    assert _guarded_run(tmp_path, "verify", "canonical_1d.yaml",
                        ["grid.shape=[17]", "time.steps=12"]) == ["0",
                                                                  str(forks)]


def _exported_names(tree: ast.Module) -> set[str]:
    """Names a package `__init__` binds by importing them."""
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _library_example(readme: str) -> ast.Module:
    """The first python block of README's `## Library` section."""
    section = readme.split("\n## Library\n", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def test_the_check_sees_an_export_nothing_reads():
    init = ast.parse("from .a import f, g, h\nfrom .b import K as L\n")
    module = ast.parse("def g(): return f(1)\nx = obj.h\n")
    readme = ("# x\n```python\ng()\n```\n## Library\n\n"
              "```python\nfrom p import L\nL()\n```\n")
    read = _loaded_names(module) | _loaded_names(_library_example(readme))
    assert sorted(_exported_names(init) - read) == ["g", "h"]


def test_every_export_is_read_in_the_package_or_the_readme_example():
    exported = _exported_names(ast.parse((SRC / "__init__.py").read_text()))
    read = _loaded_names(_library_example((ROOT / "README.md").read_text()))
    for path in MODULES:
        read |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(exported - read) == []
