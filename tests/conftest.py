import pytest

from cycleint import intersect


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts from an empty cache of tables, as a fresh process
    does: what the memory guard counts depends on the bitsets that earlier
    walks left in the tables."""
    intersect._build_sn_table.cache_clear()


@pytest.fixture
def bitset_builds(monkeypatch) -> list:
    """The (n!, t) of each call to ``_SnTable.neighbours`` that builds its
    table's per-cycle bitsets, from the test's empty cache of tables on."""
    built = []
    neighbours = intersect._SnTable.neighbours

    def counted(table, t):
        before = table.rows_by_cycle
        result = neighbours(table, t)
        if table.rows_by_cycle is not before:
            built.append((len(table.perms), t))
        return result

    monkeypatch.setattr(intersect._SnTable, "neighbours", counted)
    return built
