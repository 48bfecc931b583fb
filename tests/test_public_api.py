"""Every name that ``cycleint`` exports, and every top-level function, class
and method that it defines, has a caller in the package or the benchmark, or
an entry in ``KEPT`` that says why it stays. A caller is any read of the name,
so the check is by name: a method counts as called when any attribute of that
name is read. Dunder methods are called by the language and are not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycleint"

KEPT = {
    "pointwise_agreements": "ROADMAP item 10 makes it the pointwise pair predicate",
    "identity": "reference for the inverse and conjugation tests",
    "conjugate": "reference for the conjugation-invariance tests",
    "ij_fix_perm": "the paper's ij-fixing operator, checked against the closures",
    "ij_fix_family": "the paper's family ij-fixing, checked against the closures",
    "compress_perm": "the paper's (i,j)-compression, checked against the closures",
    "compress_family": "the paper's family compression, checked against the closures",
    "f1_closed_form": "acceptance criterion 4 checks |F_1| against it",
    "is_family_t_cycle_intersecting":
        "the pairwise reference for the verdicts the per-cycle bitsets give",
    "Permutation.cycle_type":
        "reference for the conjugation tests; ROADMAP item 2 keys the root's "
        "classes on it",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _units(tree: ast.Module):
    """Each top-level statement, with the classes split into their methods,
    and the names whose reads inside it are not callers: its own name, so
    that recursion does not count, and for a method its class's name too."""
    for statement in tree.body:
        own = getattr(statement, "name", None)
        if isinstance(statement, ast.ClassDef):
            for item in statement.body:
                yield item, {own, getattr(item, "name", None)}
            yield ast.Tuple([*statement.bases, *statement.decorator_list], ast.Load()), {own}
        else:
            yield statement, {own}


def _definitions(tree: ast.Module) -> set[str]:
    """Top-level functions and classes by name, methods as ``Class.method``."""
    found = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.add(statement.name)
        if isinstance(statement, ast.ClassDef):
            found |= {f"{statement.name}.{item.name}" for item in statement.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))}
    return found


def _references(tree: ast.Module, by_name: bool) -> set[str]:
    """Attribute names read anywhere in the module and, with ``by_name``,
    bare names read; see ``_units`` for the reads that do not count."""
    found: set[str] = set()
    for unit, own in _units(tree):
        for node in ast.walk(unit):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif by_name and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def _modules() -> list[Path]:
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _used() -> set[str]:
    used: set[str] = set()
    for path in _modules():
        used |= _references(ast.parse(path.read_text()), by_name=True)
    # the benchmark reaches cycleint only through module attributes, such as
    # ``search.max_family_search``, so its local names are not callers
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(ast.parse(path.read_text()), by_name=False)
    return used


def test_every_export_has_a_caller_or_a_reason():
    exported = _exported()
    uncalled = sorted(set(exported) - _used() - set(KEPT))
    assert not uncalled, f"exported with no caller outside tests: {uncalled}"


def test_every_definition_has_a_caller_or_a_reason():
    defined = set().union(*(_definitions(ast.parse(path.read_text()))
                            for path in _modules()))
    used = _used()
    uncalled = sorted(name for name in defined - set(KEPT)
                      if name.rpartition(".")[2] not in used)
    assert not uncalled, f"defined with no caller outside tests: {uncalled}"
    assert not set(KEPT) - defined, "KEPT names a name that is not defined"
    assert not {name for name in KEPT if name.rpartition(".")[2] in used}, \
        "KEPT names a name that now has a caller"


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports the exports, so only the other modules are read
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno} {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read]
    assert not unused, f"imported and never used: {unused}"
