"""The result records are plain classes. They keep what callers use of the
dataclasses they replaced: constructor signatures and defaults, equality,
read-only fields where they were frozen, and fresh containers per instance.
Importing the package loads none of ``dataclasses``, ``inspect`` or
``fractions``, which is why the records are plain classes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycleint.extremal import (ExtremalComparison, QuadCheck, compare_extremal,
                               f_family, quad_inequality_check)
from cycleint.gensets import (GeneratingSetCertificate, SetSystem, SurgeryReport,
                              TopPartition, certify_generating_set)
from cycleint.report import (FAIL, HYPOTHESIS_NOT_MET, PASS, CheckRecord,
                             CheckResult, VerificationReport, _Record)
from cycleint.search import CliqueSearchResult
from cycleint.transform import ClosureTrace

SRC = Path(__file__).resolve().parent.parent / "src"
SYSTEM = SetSystem(4, [(1, 4), (2, 4)])
REST = SetSystem(4, [(1, 2)])

# class, required fields, defaulted fields with their defaults, read-only
RECORDS = [
    (CheckResult, {"status": PASS}, {"witness": None, "detail": ""}, True),
    (CheckRecord, {"check": "c", "params": {"n": 3}, "status": FAIL},
     {"witness": None, "detail": ""}, False),
    (VerificationReport, {"suite": "x"}, {"records": [], "stats": {}}, False),
    (CliqueSearchResult,
     {"n": 3, "t": 1, "mode": "size-only", "max_size": 2, "witnesses": (),
      "complete": True},
     {"nodes": 0, "cutoffs": 0, "elapsed": 0.0, "certificate": None}, False),
    (ClosureTrace,
     {"operation": "fix-closure", "passes": 1, "applications": 0,
      "potential_before": 3, "potential_after": 3},
     {"pass_applications": ()}, True),
    (ExtremalComparison,
     {"n": 5, "t": 2, "sizes": {"F0": 6, "F1": 5}, "verdicts": ("F0 > F1",),
      "cross_checked": True}, {}, True),
    (QuadCheck,
     {"n": 5, "t": 2, "even": ((2, -4, True),), "odd": ((3, -5, True),),
      "holds_for_all_even": True, "required": True, "ok": True}, {}, True),
    (GeneratingSetCertificate,
     {"system": SYSTEM, "family_size": 4, "max_element": 4,
      "is_left_compressed": False, "is_inclusion_minimal": True}, {}, True),
    (TopPartition, {"delta": 2, "top": SYSTEM, "rest": REST},
     {"size_classes": {}, "in_open_range": True}, True),
    (SurgeryReport,
     {"case": 1, "n": 4, "t": 2, "delta": 2, "size_class": 2, "base_size": 4,
      "candidates": {"f1": REST}, "candidate_t_intersecting": {"f1": True},
      "candidate_sizes": {"f1": 2}, "best_size": 2, "strict_gain": False},
     {"pivot": None, "survivors": None, "pigeonhole_ok": None}, False),
]


@pytest.mark.parametrize("cls,required,defaults,frozen", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_records_behave_as_their_dataclasses_did(cls, required, defaults, frozen):
    record = cls(**required)
    fields = {**required, **defaults}
    assert {name: getattr(record, name) for name in fields} == fields
    # the positional order is the field order
    assert cls(*fields.values()) == record
    first = next(iter(required))
    assert record != cls(**{**required, first: object()})
    assert record != tuple(fields.values())
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, first, object())
        if cls is not ExtremalComparison:  # its sizes are a dict
            assert hash(record) == hash(cls(**required))
    else:
        with pytest.raises(TypeError):
            hash(record)
    if cls is CheckResult:
        assert record and not CheckResult(FAIL) and not CheckResult(HYPOTHESIS_NOT_MET)
    if cls is VerificationReport:
        other = cls("x")
        assert record.records is not other.records and record.stats is not other.stats
        record.add_bool("c", {}, True)
        assert other.records == [] and other.stats == {}
    if cls is TopPartition:  # size_classes is not compared
        split = cls(**required, size_classes={2: SYSTEM})
        assert split == record and hash(split) == hash(record)
        assert record.size_classes is not cls(**required).size_classes


@pytest.mark.parametrize("cls", [row[0] for row in RECORDS],
                         ids=[row[0].__name__ for row in RECORDS])
def test_each_record_declares_its_fields_once(cls):
    assert "__init__" not in vars(cls)
    names = cls.__slots__
    # no required field follows an optional one
    assert tuple(cls._defaults) == names[len(names) - len(cls._defaults):]
    assert set(cls._compared) <= set(names)


def test_a_bad_constructor_call_raises_type_error():
    with pytest.raises(TypeError, match="takes 3 fields, got 4"):
        CheckResult(PASS, None, "", "extra")
    with pytest.raises(TypeError, match="has no field 'detials'"):
        CheckResult(PASS, detials="typo")
    with pytest.raises(TypeError, match="got field 'status' twice"):
        CheckResult(PASS, status=FAIL)
    with pytest.raises(TypeError, match="is missing field 'params'"):
        CheckRecord("c", status=PASS)


@pytest.mark.parametrize("record,expected", [
    (quad_inequality_check(7, 2),
     {"n": 7, "t": 2, "even": [[2, -8, True], [4, -12, True]],
      "odd": [[3, -11, True], [5, -11, True]], "holds_for_all_even": True,
      "required": True, "ok": True}),
    (compare_extremal(6, 2, (0, 1, 2)),
     {"n": 6, "t": 2, "sizes": {"F0": 24, "F1": 18, "F2": 16},
      "verdicts": ["F0 > F1", "F0 > F2", "F1 > F2"], "cross_checked": True}),
    (certify_generating_set(f_family(6, 2, 1)),
     {"system": {"n": 6, "sets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
      "family_size": 18, "max_element": 4, "is_left_compressed": True,
      "is_inclusion_minimal": True}),
], ids=["QuadCheck", "ExtremalComparison", "GeneratingSetCertificate"])
def test_record_json_is_pinned(record, expected):
    data = record.to_json_dict()
    # == tells a tuple from a list, and the JSON text pins the key order
    assert data == expected and json.dumps(data) == json.dumps(expected)


def _record_classes(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_only_records_with_their_own_json_format_define_to_json_dict():
    own = {cls.__name__ for cls in _record_classes() if "to_json_dict" in vars(cls)}
    assert own == {"CheckRecord", "VerificationReport", "CliqueSearchResult"}


def test_importing_the_package_loads_no_dataclasses_inspect_or_fractions():
    code = ("import json, sys; before = set(sys.modules); "
            "import cycleint, cycleint.cli; "
            "print(json.dumps([cycleint.__file__, sorted(set(sys.modules) - before)]))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    path, loaded = json.loads(child.stdout)
    assert Path(path).resolve().parent == (SRC / "cycleint").resolve()
    assert not {"dataclasses", "inspect", "fractions"} & set(loaded)
