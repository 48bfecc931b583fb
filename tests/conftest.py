import pytest

from cycleint import intersect


@pytest.fixture
def bitset_builds(monkeypatch) -> list:
    """The (n!, t) of each call to ``_SnTable.neighbours`` that builds its
    table's per-cycle bitsets, from an empty cache of tables on."""
    built = []
    neighbours = intersect._SnTable.neighbours

    def counted(table, t):
        before = table.rows_by_cycle
        result = neighbours(table, t)
        if table.rows_by_cycle is not before:
            built.append((len(table.perms), t))
        return result

    monkeypatch.setattr(intersect._SnTable, "neighbours", counted)
    intersect._build_sn_table.cache_clear()
    return built
