"""Every walk of S_n in ``cycleint`` passes one guard, ``intersect._check_walk``.
The cached table is read only through ``_sn_table``, which runs the guard; the
memory limit is read only by the guard; and S_n is enumerated only by the
table and by the naive oracle, which runs the guard itself. The guard's cap,
``intersect.enumeration_cap``, is the one degree limit: only ``intersect``
reads it and the environment, and no call sets a cap of its own. The check
is by name on the syntax tree, like the one in ``test_public_api``, so a new
walk of S_n, a second cap or a way round the cap cannot come in unnoticed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycleint"


def _readers(name: str) -> set[str]:
    """The top-level statements of the package, as ``module.name``, that read
    ``name``; ``__init__`` only imports, so it is not read."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            if any((isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   for node in ast.walk(statement)):
                label = getattr(statement, "name", None) or ast.unparse(statement)
                found.add(f"{path.stem}.{label}")
    return found


def test_only_the_table_lookup_reads_the_table_cache():
    assert _readers("_build_sn_table") == {"intersect._sn_table"}


def test_only_the_guard_reads_the_memory_limit():
    assert _readers("_memory_limit") == {"intersect._check_walk"}


def test_only_the_table_and_the_naive_oracle_enumerate_s_n():
    assert _readers("all_permutations") == {"intersect._SnTable",
                                            "search.naive_max_family_size"}


def test_walks_that_read_no_table_run_the_guard_themselves():
    assert _readers("_check_walk") == {"intersect._sn_table",
                                       "search.conjugacy_representatives",
                                       "search.naive_max_family_size"}


def test_only_the_cap_reads_the_environment():
    assert _readers("environ") | _readers("getenv") == {"intersect.enumeration_cap"}


def test_no_call_sets_a_cap_of_its_own():
    # a cap passed by keyword is the caller's own cap, handed on
    invented = sorted(
        f"{path.stem}: {ast.unparse(node)}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "cap" and not (isinstance(keyword.value, ast.Name)
                                         and keyword.value.id == "cap"))
    assert not invented


def test_only_intersect_reads_the_cap():
    # the cross-checks ask the guard's own comparison, ``_within_cap``, and
    # there is no ``config`` module left to read
    assert _readers("enumeration_cap") == {"intersect._check_walk",
                                           "intersect._within_cap"}
    assert not _readers("config")
    assert not (PACKAGE / "config.py").exists()
