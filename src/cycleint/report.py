"""Three-valued check results and verification reports.

Checks that carry hypotheses distinguish "the hypothesis does not hold on
this input" from "the hypothesis holds and the conclusion fails"; the latter
would falsify a theorem, the former is merely an out-of-scope input. Every
failing record carries a machine-replayable witness.

The package's result records are plain ``__slots__`` classes on the two
bases here, not dataclasses: ``import dataclasses`` loads ``inspect`` and
its parsers, and building each dataclass compiles code, which together took
about a third of the start-up of every ``cycleint`` process. A record names
its fields once, in ``__slots__``; the base binds its constructor arguments
to them and writes them, in that order, as its JSON.
"""

from __future__ import annotations

from typing import Any

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


class _Record:
    """A record lists its fields in ``__slots__``, in constructor order, and
    the defaults of its optional, trailing fields in ``_defaults``; a list or
    dict default is copied for each record. The constructor takes the fields
    positionally or by name. Two records of one class are equal when their
    ``_compared`` fields are, by default all of them."""

    __slots__ = ()
    _defaults: dict[str, Any] = {}
    _compared: tuple[str, ...] = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names, cls = self.__slots__, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                value = value.copy() if isinstance(value, (list, dict)) else value
            else:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls} got field {name!r} twice" if name in names
                            else f"{cls} has no field {name!r}")

    def to_json_dict(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in self.__slots__}

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _json_value(value: Any) -> Any:
    """``value`` as JSON data: by its own ``to_json_dict`` if it has one, a
    tuple or list as a list, a dict with its values converted."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


class _FrozenRecord(_Record):
    """A record whose fields are read-only after ``__init__``; hashable."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


class CheckResult(_FrozenRecord):
    """Outcome of a single hypothesis-carrying check; truthy iff it passed."""

    __slots__ = ("status", "witness", "detail")
    _defaults = {"witness": None, "detail": ""}

    def __bool__(self) -> bool:
        return self.status == PASS


def passed(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(PASS, witness, detail)


def failed(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(FAIL, witness, detail)


def hypothesis_not_met(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(HYPOTHESIS_NOT_MET, witness, detail)


class CheckRecord(_Record):
    __slots__ = ("check", "params", "status", "witness", "detail")
    _defaults = {"witness": None, "detail": ""}

    def to_json_dict(self) -> dict:
        d = {"check": self.check, "params": self.params, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        return d


class VerificationReport(_Record):
    """Per-check pass/fail records for one verification suite."""

    __slots__ = ("suite", "records", "stats")
    _defaults = {"records": [], "stats": {}}

    def add(self, check: str, params: dict, status: str,
            witness: Any = None, detail: str = "") -> CheckRecord:
        record = CheckRecord(check, params, status, witness, detail)
        self.records.append(record)
        return record

    def add_result(self, check: str, params: dict, result: CheckResult) -> CheckRecord:
        return self.add(check, params, result.status, result.witness, result.detail)

    def add_bool(self, check: str, params: dict, ok: bool,
                 witness: Any = None, detail: str = "") -> CheckRecord:
        return self.add(check, params, PASS if ok else FAIL,
                        None if ok else witness, detail)

    def extend(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)
        for key, value in other.stats.items():
            name = key if key not in self.stats else f"{other.suite}.{key}"
            unique, serial = name, 2
            while unique in self.stats:
                unique = f"{name}.{serial}"
                serial += 1
            self.stats[unique] = value

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == FAIL]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "stats": self.stats,
            "records": [r.to_json_dict() for r in self.records],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            mark = {PASS: "PASS", FAIL: "FAIL", HYPOTHESIS_NOT_MET: "SKIP"}[r.status]
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            suffix = f" [{r.detail}]" if r.detail else ""
            lines.append(f"{mark} {r.check} ({params}){suffix}")
        verdict = "all passed" if self.passed else f"{len(self.failures())} failed"
        skipped = sum(r.status == HYPOTHESIS_NOT_MET for r in self.records)
        if skipped:
            verdict += f", {skipped} not assessed"
        lines.append(f"suite {self.suite}: {len(self.records)} checks, {verdict}")
        return lines
