"""Module hygiene: no dead imports, private names or public names, and light ``relq.cli`` imports and solves.

No linter runs on this package, so the unused-import and unread-name
checks are done here with ``ast``.  A name imported only so that another
tool can find it on the module keeps its import when the alias's own line
says ``# noqa: F401`` followed by the reason.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import relq

SRC = Path(relq.__file__).resolve().parent
NOQA = re.compile(r"#\s*noqa:\s*F401\s+\S")


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # quoted annotations ("GaussianSampler") name their types in a string
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and not NOQA.search(lines[alias.lineno - 1]):
                unused.append(f"{path.name}:{alias.lineno}: {bound}")
    return unused


def test_every_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [line for p in modules for line in _unused_imports(p)] == []


def test_the_checker_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401  (kept for callers)\n"
        ")\n"
        "def f() -> \"Path\":\n"
        "    return dumps\n"
        "from pathlib import Path\n"
    )
    assert _unused_imports(mod) == ["mod.py:1: os", "mod.py:2: sys"]


def _private_definitions(tree: ast.Module):
    """(line, name) of each private top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__"))


def _unread_private_names(paths: list[Path], package: str) -> list[str]:
    """Private top-level names that neither their module reads nor another
    module of the package imports by name (the import check then makes the
    importer read it)."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = []
    for path, tree in trees.items():
        read = _used_names(tree) | {name for module, name in imported if module == f"{package}.{path.stem}"}
        unread += [f"{path.name}:{line}: {name}" for line, name in _private_definitions(tree) if name not in read]
    return unread


def test_every_private_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert _unread_private_names(modules, "relq") == []


def test_the_checker_sees_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_STALE = 4\n"
        "def _kept():\n"
        "    return _LIMIT\n"
        "def _labels():\n"
        "    return _kept()\n"
        "def _exported():\n"
        "    return 0\n"
    )
    # b imports _exported and reads its own _labels; a's _labels, a second
    # copy that nothing reads any more, is reported with the stale constant
    (tmp_path / "b.py").write_text(
        "from pkg.a import _exported\n"
        "def _labels():\n"
        "    return _exported()\n"
        "def run() -> \"_Helper\":\n"
        "    return _labels()\n"
        "class _Helper:\n"
        "    pass\n"
        "_unused = _scratch = 0\n"
    )
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _unread_private_names(paths, "pkg") == ["a.py:2: _STALE", "a.py:5: _labels", "b.py:8: _unused", "b.py:8: _scratch"]


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports relq from this tree."""
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_out_concurrent_futures_and_logging():
    # the Monte Carlo drivers run their blocks on plain threads, so neither
    # the import nor a driver run loads concurrent.futures or the logging
    # it pulls in
    code = (
        "import sys, relq.cli\n"
        "from relq.harness import conjecture_experiment, mc_sign_change\n"
        "mc_sign_change(s=200, trials=3000, seed=1)\n"
        "conjecture_experiment([0.5], s=200, trials=3000, seed=1)\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    assert _run_python(code) == "[]"


def test_solve_leaves_out_numpy_fft():
    # the solver reaches its frequency blocks through one precomputed DFT
    # matrix; numpy.fft loads lazily, and its pocketfft extension would add
    # to the resident memory of every solve
    code = (
        "import sys, relq.cli\n"
        "from relq.instance import generate_instance\n"
        "from relq.sdp import solve_p_plus\n"
        "solve_p_plus(generate_instance(4, 8, 6, seed=1)[0])\n"
        "print('numpy.fft' in sys.modules)"
    )
    assert _run_python(code) == "False"


def _init_imports() -> list[str]:
    """The names that relq/__init__.py imports from the package's modules, in order."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_all_lists_exactly_the_imported_names():
    assert len(relq.__all__) == len(set(relq.__all__))
    assert [name for name in relq.__all__ if not hasattr(relq, name)] == []
    imported = _init_imports()
    assert len(imported) == len(set(imported)) == 40  # __all__ is these and __version__
    assert set(imported) == set(relq.__all__) - {"__version__"}


# public names and members that no module of the package reads, each with why it stays
UNREAD_PUBLIC = {
    "detect_extreme_sign_changes": "perfbench/tracer.py patches it; ROADMAP item 13 moves it to the test oracles",
    "FeasibilityReport.objective_trace": "perfbench/workloads.py _solve_counters reads it; ROADMAP items 1A and 2 drop it",
}


def _public_members(tree: ast.Module, classes) -> list[str]:
    """Class.member for each public field, property and method of the named classes defined in tree."""
    members = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in classes):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            elif isinstance(item, ast.FunctionDef):
                name = item.name
            else:
                continue
            if not name.startswith("_"):
                members.append(f"{node.name}.{name}")
    return members


def _unread_public_names(paths: list[Path], names) -> list[str]:
    """The names, and the members of the named classes, that no module in paths
    reads as a loaded name or an attribute.

    A member counts as read when any attribute of that name is loaded, so one
    whose name another attribute shares is not caught: a RoundingOutcome.s
    read by no module would pass as read through the command line's args.s.
    """
    read = set()
    members = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read |= _used_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        members += _public_members(tree, names)
    return sorted(name for name in [*names, *members] if name.rpartition(".")[2] not in read)


def test_every_public_name_is_read_by_the_package():
    # "no public API that only tests call": a name the package never reads
    # belongs in tests/oracles.py, not in relq.__all__
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert _unread_public_names(modules, relq.__all__) == sorted(UNREAD_PUBLIC)


def test_the_checker_sees_an_unread_public_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Result:\n"
        "    value: float\n"
        "def closed_form() -> \"Result\":\n"
        "    return Result(1.0)\n"
        "def only_tests_call_me():\n"
        "    return closed_form()\n"
        "def stored():\n"
        "    return 0\n"
    )
    # b reads closed_form as an attribute, and Result's field, and only writes `stored`
    (tmp_path / "b.py").write_text(
        "import a\n"
        "def run():\n"
        "    a.stored = None\n"
        "    return a.closed_form().value\n"
    )
    names = ["Result", "closed_form", "only_tests_call_me", "stored"]
    assert _unread_public_names([tmp_path / "a.py", tmp_path / "b.py"], names) == ["only_tests_call_me", "stored"]


def test_the_checker_sees_an_unread_public_member(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Result:\n"
        "    value: float\n"
        "    trace: list\n"
        "    @property\n"
        "    def doubled(self):\n"
        "        return 2 * self.value\n"
        "    def spare(self):\n"
        "        return 0\n"
        "    def _private(self):\n"
        "        return 1\n"
        "class Unlisted:\n"
        "    ignored: int\n"
        "def make():\n"
        "    r = Result(1.0, [])\n"
        "    r.trace = [r.doubled]\n"
        "    return r\n"
    )
    # trace is only written and spare never called; Unlisted is not a public
    # name, so its members are not checked
    assert _unread_public_names([tmp_path / "a.py"], ["Result"]) == ["Result.spare", "Result.trace"]


def test_readme_quick_start_runs():
    # the README's one Python example, run as written against this tree
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from relq import" in code
    assert len(_run_python(code).splitlines()) == 2
