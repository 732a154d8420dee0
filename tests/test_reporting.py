"""JSON rendering of check results and suite reports."""

import json
from fractions import Fraction

from ealie.finroot import Root
from ealie.reporting import AxiomReport, CheckResult, jsonable


def test_jsonable_fraction_and_root():
    assert jsonable(Fraction(3, 4)) == "3/4"
    assert jsonable(Root(finite=(1, -1), lattice=(0, 2))) == {
        "finite": [1, -1],
        "lattice": [0, 2],
    }


def test_jsonable_containers_sorted():
    out = jsonable({"b": {2, 1}, "a": (Fraction(1, 2), None)})
    assert list(out) == ["a", "b"]
    assert out == {"a": ["1/2", None], "b": [1, 2]}
    assert json.dumps(out)


def test_jsonable_tuple_keys_stringified():
    out = jsonable({(1, 0): Fraction(-1)})
    assert out == {"(1, 0)": "-1"}


def test_check_result_json_shapes():
    ok = CheckResult("x", True, "fine")
    bad = CheckResult("y", False, "broken", {"root": Root(finite=(2,), lattice=())})
    assert ok.as_json() == {"name": "x", "passed": True, "detail": "fine", "witness": None}
    assert bad.as_json()["witness"] == {"root": {"finite": [2], "lattice": []}}


def test_axiom_report_passed_and_json():
    results = [CheckResult("a", True), CheckResult("b", False, "no")]
    rep = AxiomReport("T", results, {"window": 1})
    assert rep.passed is False
    payload = rep.as_json()
    assert payload["suite"] == "T"
    assert payload["metadata"] == {"window": 1}
    assert [r["name"] for r in payload["results"]] == ["a", "b"]
    assert AxiomReport("T", [results[0]]).passed is True
