"""The package holds what a program runs: every public module-level function
and class in ``src/ttq``, and every public method or property of a package
class, is referenced by a program file.

Program files are the package itself, ``scripts/`` and ``perfbench/`` (its
own tests excluded).  A reference is a use of the name, resolved through the
file's imports: ``name`` bound by ``from ttq.m import name`` or defined in
the same module, or ``alias.name`` with ``alias`` bound to a package module.
An import alone is no reference, so a re-export does not keep a name alive,
and neither does a use inside the name's own definition or inside another
unreferenced one.  A class member is referenced when its name is read as
an attribute (``x.name``) or written as a string (``getattr(x, "name")``)
outside its own definition; the name alone counts, whatever the object.
Oracles only tests call belong in ``tests/reference_*.py``.  No program
file imports a name it does not use.

Every defaulted parameter of a public package function or method (a
class's ``__init__`` included) is passed, by position or keyword, at some
call in a program file, resolved by name as above: an option no program
sets is a constant instead.  ``UNPASSED`` names the exceptions and why.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ttq"

# (module, name) -> why it stays with no reference the resolver can see
READ_BY_STRING = {
    ("autodiff", "einsum"): "perfbench/spans.py wraps every op spans.autodiff_ops() lists, "
                            "and reads autodiff.einsum_ms and autodiff.einsum_calls from its span",
    ("autodiff", "fake_quant"): "perfbench/spans.py wraps every op spans.autodiff_ops() lists, "
                                "and reads quant.fake_quant_ms and quant.fake_quant_calls "
                                "from its span",
}

# a defaulted parameter no program passes -> why it stays
UNPASSED = {
    "cli.main(argv)": "the ttq console script calls main() bare, so that argparse reads "
                      "sys.argv; tests pass their argument lists",
}


def program_files() -> list[Path]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return files + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                          if not p.name.startswith("test_"))


def is_definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def package_source(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The package module an ``ImportFrom`` reads from ("" for the package
    itself), or None for an import from elsewhere."""
    if node.level:
        return (node.module or "") if in_package else None
    if node.module == "ttq":
        return ""
    if node.module and node.module.startswith("ttq."):
        return node.module[len("ttq."):]
    return None


def bindings(tree: ast.Module, path: Path, package: Path) -> tuple[dict, dict]:
    """The file's local names bound to package modules (local -> module) and
    to package names (local -> (module, name)): its imports from the
    package, and a package module's own top-level definitions."""
    in_package = path.parent == package
    modules, names = {}, {}
    if in_package:
        names = {n.name: (path.stem, n.name) for n in tree.body if is_definition(n)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = package_source(node, in_package)
        for alias in node.names if source is not None else []:
            local = alias.asname or alias.name
            if source == "":  # from ttq import autodiff as ad
                modules[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return modules, names


def scan(path: Path, package: Path):
    """The public definitions of one file, as (module, name) keys when it is
    a package module, and its uses of package names as (used key, key of the
    public definition the use sits in, or None)."""
    tree = ast.parse(path.read_text())
    in_package = path.parent == package
    modules, names = bindings(tree, path, package)
    defs, uses = [], []
    for top in tree.body:
        owner = None
        if in_package and is_definition(top) and not top.name.startswith("_"):
            owner = (path.stem, top.name)
            defs.append(owner)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                uses.append((names[node.id], owner))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                uses.append(((modules[node.value.id], node.attr), owner))
    return defs, uses


def unreferenced(files: list[Path], package: Path = PACKAGE) -> list[str]:
    """Public package names with no reference from ``files``, as module.name.
    Found as a fixed point: a use inside an unreferenced definition does not
    count."""
    defs, uses = set(), []
    for path in files:
        found, used = scan(path, package)
        defs.update(found)
        uses += used
    dead: set = set()
    while True:
        live = {key for key, owner in uses if owner != key and owner not in dead}
        now = defs - live
        if now == dead:
            return sorted(f"{m}.{n}" for m, n in dead if (m, n) not in READ_BY_STRING)
        dead = now


def members(module: str, tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The public methods and properties of the classes a module defines at
    top level, as ("module.Class.member", definition)."""
    return [(f"{module}.{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def names_read(tree: ast.AST) -> list[str]:
    """Every attribute name ``tree`` reads and every string it holds."""
    return [node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)]


def unread_members(files: list[Path], package: Path = PACKAGE) -> list[str]:
    """Public members of package classes whose name no file of ``files``
    reads outside the member's own definition, as module.Class.member."""
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = Counter(name for tree in trees.values() for name in names_read(tree))
    return sorted(key for path, tree in trees.items() if path.parent == package
                  for key, node in members(path.stem, tree)
                  if read[node.name] == names_read(node).count(node.name))


def defaulted_params(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """``fn``'s parameters that have a default, each with its index among
    the positional arguments a call passes (None for a keyword-only one);
    ``bound`` drops the first parameter, a method's ``self`` or ``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def callables(module: str, tree: ast.Module):
    """(label, callee key, defaulted parameters) of every public top-level
    function and every public method or ``__init__`` of a top-level class.
    A function's key is its (module, name), as ``bindings`` resolves it; a
    class's ``__init__`` takes the class's key; a method's key is its name
    alone, whatever the object it is called on."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", (module, node.name), defaulted_params(node, False)
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name.startswith("_") and fn.name != "__init__":
                continue
            key = (module, node.name) if fn.name == "__init__" else fn.name
            yield f"{module}.{node.name}.{fn.name}", key, defaulted_params(fn, True)


def calls(path: Path, package: Path):
    """Every call in one file, as (callee key, positional argument count,
    keyword names): the count is unbounded past a ``*`` argument and the
    names None (any) with a ``**`` argument.  A call of ``name`` or
    ``alias.name`` is keyed as ``bindings`` resolves it; any other
    ``x.name(...)`` by ``name``."""
    tree = ast.parse(path.read_text())
    modules, names = bindings(tree, path, package)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            key = names.get(func.id)
        elif not isinstance(func, ast.Attribute):
            continue
        elif isinstance(func.value, ast.Name) and func.value.id in modules:
            key = (modules[func.value.id], func.attr)
        else:
            key = func.attr
        if key is None:
            continue
        count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
        keywords = None if any(k.arg is None for k in node.keywords) else {
            k.arg for k in node.keywords}
        yield key, count, keywords


def unpassed_defaults(files: list[Path], package: Path = PACKAGE) -> list[str]:
    """The defaulted parameters of public package functions and methods that
    no call in ``files`` passes, by position or keyword, as
    ``module.name(parameter)``; ``UNPASSED`` names the ones that stay."""
    passed: dict = {}
    for path in files:
        for key, count, keywords in calls(path, package):
            passed.setdefault(key, []).append((count, keywords))
    found = []
    for path in files:
        if path.parent != package:
            continue
        for label, key, params in callables(path.stem, ast.parse(path.read_text())):
            for name, index in params:
                if not any(index is not None and count > index
                           or keywords is None or name in keywords
                           for count, keywords in passed.get(key, [])):
                    found.append(f"{label}({name})")
    return sorted(f for f in found if f not in UNPASSED)


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, as ``file:line name``.  A
    read is any ``Name`` node of the bound name, the base of an attribute
    included; ``from __future__`` imports bind nothing."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if local not in read:
                found.append(f"{path.name}:{node.lineno} {local}")
    return found


def test_program_files_import_only_what_they_use():
    assert [name for path in program_files() for name in unused_imports(path)] == []


def test_an_unused_import_is_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n\n"
                    "import os.path\nimport numpy as np\n"
                    "from dataclasses import dataclass, field\n\n\n"
                    "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(path) == ["mod.py:3 os", "mod.py:5 field"]


def test_every_public_package_name_has_a_program_reference():
    assert unreferenced(program_files()) == []


def test_every_public_class_member_is_read_by_a_program():
    assert unread_members(program_files()) == []


def test_a_member_only_tests_would_read_is_reported(tmp_path):
    package = tmp_path / "ttq"
    package.mkdir()
    (package / "shapes.py").write_text(
        "class Plan:\n"
        "    @property\n    def rows(self):\n        return 1\n\n"
        "    @property\n    def cols(self):\n        return 2\n\n"
        "    def by_name(self):\n        return 3\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    def only_tests(self):\n        return self.rows\n\n"
        "    def _private(self):\n        return 4\n")
    (package / "main.py").write_text(
        "from .shapes import Plan\n\n\nPLAN = Plan()\n"
        "VALUE = PLAN.cols + getattr(PLAN, 'by_name')()\n")
    files = sorted(package.glob("*.py"))
    assert unread_members(files, package) == ["shapes.Plan.only_tests", "shapes.Plan.recursive"]


def test_names_read_by_string_are_what_perfbench_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for module, name in READ_BY_STRING:
        assert hasattr(importlib.import_module(f"ttq.{module}"), name)
    assert {"einsum", "fake_quant"} <= set(spans.autodiff_ops())
    assert {"autodiff.einsum_ms", "autodiff.einsum_calls", "quant.fake_quant_ms",
            "quant.fake_quant_calls"} <= spans.PER_LAYER.keys()


def test_a_name_only_tests_would_call_is_reported(tmp_path):
    package = tmp_path / "ttq"
    package.mkdir()
    (package / "helpers.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "def only_tests():\n    return inner()\n\n\n"
        "def inner():\n    return 2\n")
    (package / "__init__.py").write_text("from .helpers import only_tests\n")
    (package / "main.py").write_text("from . import helpers as h\n\n\nVALUE = h.used()\n")
    assert unreferenced(sorted(package.glob("*.py")), package) == [
        "helpers.inner", "helpers.only_tests", "helpers.recursive"]


def test_every_defaulted_parameter_is_passed_by_a_program():
    assert unpassed_defaults(program_files()) == []


def test_unpassed_names_only_defaulted_parameters_the_package_has():
    params = {f"{label}({name})" for path in sorted(PACKAGE.glob("*.py"))
              for label, _, found in callables(path.stem, ast.parse(path.read_text()))
              for name, _ in found}
    assert set(UNPASSED) <= params


def test_a_default_no_program_passes_is_reported(tmp_path):
    package = tmp_path / "ttq"
    package.mkdir()
    (package / "helpers.py").write_text(
        "def scale(x, factor=2, *, offset=0, unused=1):\n    return x * factor + offset\n\n\n"
        "def never_called(x, y=0):\n    return x + y\n\n\n"
        "def pad(x, left=0, right=0):\n    return x\n\n\n"
        "class Layer:\n"
        "    def __init__(self, width, name='layer'):\n        self.width = width\n\n"
        "    def forward(self, x, mode='train', trace=False):\n        return x\n\n"
        "    @classmethod\n    def make(cls, width=4):\n        return cls(width)\n")
    (package / "main.py").write_text(
        "from . import helpers as h\nfrom .helpers import Layer\n\n\n"
        "VALUE = h.scale(1, 3, offset=1) + h.never_called(1)\n"
        "OUT = Layer(2).forward(1, 'infer') + Layer.make(8).width\n"
        "KEYWORDS = {'right': 1}\n"
        "PADDED = h.pad(*[1, 2], **KEYWORDS)\n")
    assert unpassed_defaults(sorted(package.glob("*.py")), package) == [
        "helpers.Layer.__init__(name)", "helpers.Layer.forward(trace)",
        "helpers.never_called(y)", "helpers.scale(unused)"]
