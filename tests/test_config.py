import pytest

from cycleint import config


def test_defaults():
    assert config.enumeration_cap() == config.DEFAULT_ENUMERATION_CAP == 7


def test_override_argument_wins(monkeypatch):
    monkeypatch.setenv(config.ENUMERATION_CAP_ENV, "4")
    assert config.enumeration_cap() == 4
    assert config.enumeration_cap(9) == 9


def test_env_values_validated(monkeypatch):
    monkeypatch.setenv(config.ENUMERATION_CAP_ENV, "zero")
    with pytest.raises(ValueError, match="must be an integer, got 'zero'"):
        config.enumeration_cap()
    monkeypatch.setenv(config.ENUMERATION_CAP_ENV, "0")
    with pytest.raises(ValueError, match="must be positive, got 0"):
        config.enumeration_cap()



@pytest.mark.parametrize("override", [True, 7.5, "8"])
def test_override_must_be_an_integer(override):
    with pytest.raises(ValueError, match="^enumeration cap must be an integer, got "):
        config.enumeration_cap(override)
