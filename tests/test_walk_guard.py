"""Every walk of S_n in ``cycleint`` passes one guard, ``intersect._check_walk``.
The cached table is read only through ``_sn_table``, which runs the guard; the
memory limit is read only by the guard; and S_n is enumerated only by the
table and by the naive oracle, which runs the guard itself. The check is by
name on the syntax tree, like the one in ``test_public_api``, so a new walk
of S_n cannot skip the guard unnoticed."""

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
