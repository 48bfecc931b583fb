"""Every name that ``cycleint`` exports has a caller in the package or the
benchmark, or an entry in ``KEPT`` that says why it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycleint"

KEPT = {
    "pointwise_agreements": "ROADMAP item 7 makes it the pointwise pair predicate",
    "identity": "reference for the inverse and conjugation tests",
    "conjugate": "reference for the conjugation-invariance tests",
    "ij_fix_perm": "the paper's ij-fixing operator, checked against the closures",
    "ij_fix_family": "the paper's family ij-fixing, checked against the closures",
    "compress_perm": "the paper's (i,j)-compression, checked against the closures",
    "compress_family": "the paper's family compression, checked against the closures",
    "f1_closed_form": "acceptance criterion 4 checks |F_1| against it",
}


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references(tree: ast.Module, by_name: bool) -> set[str]:
    """Attribute names read anywhere in the module and, with ``by_name``,
    bare names read; a top-level definition's references to its own name
    (recursion) do not count."""
    found: set[str] = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif by_name and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_export_has_a_caller_or_a_reason():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()), by_name=True)
    # the benchmark reaches cycleint only through module attributes, such as
    # ``search.max_family_search``, so its local names are not callers
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(ast.parse(path.read_text()), by_name=False)
    exported = _exported()
    uncalled = sorted(set(exported) - used - set(KEPT))
    assert not uncalled, f"exported with no caller outside tests: {uncalled}"
    assert not set(KEPT) - set(exported), "KEPT names a name that is not exported"
    assert not set(KEPT) & used, "KEPT names a name that now has a caller"


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
