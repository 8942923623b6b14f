"""The matrix codec and the indented encoder against what they replace: the
per-entry matrix conversions they were first written as, and json.dumps."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import ginv.serialize
from ginv import (
    CHECKS,
    EnsembleConfig,
    InputError,
    compute_outer_pql,
    exists_outer_pql,
    gap,
    gen_scenario,
    run_campaign,
    run_check,
)
from ginv.exact import ExactMatrix
from ginv.serialize import (
    campaign_report_to_json,
    config_to_json,
    dumps,
    exact_matrix_to_json,
    existence_report_to_json,
    gap_result_to_json,
    ginv_result_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    scenario_to_json,
)

from conftest import draw_solvable


def reference_to_json(m):
    """matrix_to_json as it was first written, one entry at a time."""
    m = np.asarray(m, dtype=complex)
    data = []
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            z = complex(m[i, j])
            data.append([z.real, z.imag])
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def reference_from_json(d):
    """matrix_from_json as it was first written, one entry at a time, for a
    well-formed non-exact matrix object."""
    r, c, data = d["rows"], d["cols"], d["data"]
    pairs = [e if isinstance(e, (list, tuple)) else (e, 0.0) for e in data]
    real = (int, float, Fraction, np.floating, np.integer)
    if any(len(e) != 2 for e in pairs) or not all(
        isinstance(x, real) and not isinstance(x, (bool, np.bool_)) for e in pairs for x in e
    ):
        raise InputError("matrix entries must be numbers or [re, im] pairs of numbers")
    try:
        m = np.array(pairs, dtype=float).view(complex).reshape(r, c)
    except (ValueError, OverflowError) as e:
        raise InputError(f"bad matrix: {e}") from e
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


TINY = 5e-324  # the smallest subnormal
MATRICES = {
    "signed-zeros": np.array([[0.0, -0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
    "subnormals": np.array([[TINY, -TINY * 3], [complex(2.2250738585072014e-308, -TINY), 1e-310j]]),
    "extremes": np.array([[1.7976931348623157e308, -1.7976931348623157e308j, 0.1 + 0.2j]]),
    "0x3": np.zeros((0, 3), dtype=complex),
    "3x0": np.zeros((3, 0), dtype=complex),
    "0x0": np.zeros((0, 0), dtype=complex),
    "real": np.arange(12.0).reshape(3, 4) / 7,
    "random": np.random.default_rng(5).standard_normal((6, 10)).view(complex),
}


@pytest.mark.parametrize("name", list(MATRICES))
def test_matrix_encoder_matches_the_per_entry_reference(name):
    m = MATRICES[name]
    mine, reference = matrix_to_json(m), reference_to_json(m)
    assert mine == reference
    assert [list(map(type, e)) for e in mine["data"]] == [[float, float]] * len(reference["data"])
    signs = [math.copysign(1.0, x) for e in mine["data"] for x in e]
    assert signs == [math.copysign(1.0, x) for e in reference["data"] for x in e]
    back = matrix_from_json(json.loads(dumps(mine)))
    np.testing.assert_array_equal(_bits(back), _bits(m.astype(complex)))


def _decode_cases():
    paired = reference_to_json(MATRICES["subnormals"])
    return {
        "pairs": paired,
        "bare": {"rows": 2, "cols": 2, "data": [-0.0, TINY, 3, 2**63 + 1]},
        "mixed": {"rows": 2, "cols": 3, "data": [1, [-0.0, -0.0], 2.5, (0.0, -TINY), 10**20, [7, 1]]},
        "numpy-and-fraction": {"rows": 1, "cols": 3, "data": [np.float64(0.1), [Fraction(1, 3), np.int64(-2)], 4]},
        "0x3": {"rows": 0, "cols": 3, "data": []},
        "3x0": {"rows": 3, "cols": 0, "data": ()},
        "0x0": {"rows": 0, "cols": 0, "data": []},
        "string": {"rows": 1, "cols": 2, "data": [1.0, "2"]},
        "string-part": {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [2.0, "0"]]},
        "boolean": {"rows": 1, "cols": 1, "data": [True]},
        "boolean-part": {"rows": 1, "cols": 2, "data": [[1.0, False], 2.0]},
        "numpy-boolean": {"rows": 1, "cols": 1, "data": [np.bool_(True)]},
        "short-pair": {"rows": 1, "cols": 2, "data": [[1.0], [2.0, 0.0]]},
        "long-pair": {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]},
        "nested-pair": {"rows": 1, "cols": 1, "data": [[[1.0], 0.0]]},
        "null": {"rows": 1, "cols": 2, "data": [None, 1.0]},
        "object": {"rows": 1, "cols": 1, "data": [{"re": 1.0}]},
        "overflow": {"rows": 1, "cols": 2, "data": [1.0, 10**400]},
        "overflow-part": {"rows": 1, "cols": 1, "data": [[0.0, -(10**400)]]},
        "nan": {"rows": 1, "cols": 2, "data": [[float("nan"), 0.0], 1.0]},
        "infinite": {"rows": 1, "cols": 1, "data": [float("-inf")]},
        "unusable-shape": {"rows": 0, "cols": 2**70, "data": []},
    }


@pytest.mark.parametrize("name", list(_decode_cases()))
def test_matrix_decoder_matches_the_per_entry_reference(name):
    d = _decode_cases()[name]
    try:
        expected = reference_from_json(d)
    except InputError:
        with pytest.raises(InputError):
            matrix_from_json(d)
        return
    got = matrix_from_json(d)
    assert got.shape == expected.shape and got.dtype == complex
    np.testing.assert_array_equal(_bits(got), _bits(expected))


def reference_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _report_objects():
    """Every encoder's output on generated instances, keyed by a label."""
    out = {}
    for theorem in sorted(CHECKS):
        s = gen_scenario(EnsembleConfig(n_range=(3, 4), count=1, seed=5, theorems=(theorem,)), 0, theorem)
        out[f"report-{theorem}"] = report_to_json(run_check(theorem, s)[1])
        if theorem == "thm3.9":
            out["scenario"] = scenario_to_json(s)
    a, p, q = draw_solvable(3)
    result = compute_outer_pql(a, p, q)
    out["ginv-result"] = ginv_result_to_json(result)
    out["existence"] = existence_report_to_json(exists_outer_pql(a, p, q))
    out["gap"] = gap_result_to_json(gap(p.range, q.kernel))
    out["exact"] = exact_matrix_to_json(ExactMatrix.from_strings([["1/3", ("-2", "5/7")], ["0", "4"]]))
    # selftest-bad-bound fails on every instance, so the report carries
    # failures with their scenarios.
    config = EnsembleConfig(n_range=(2, 3), count=2, seed=4, theorems=("selftest-bad-bound", "thm2.4"))
    campaign = campaign_report_to_json(run_campaign(config))
    assert campaign["stats"]["selftest-bad-bound"]["failures"]
    out["campaign-with-failures"] = campaign
    out["config"] = config_to_json(config)
    return out


REPORTS = _report_objects()


@pytest.mark.parametrize("label", list(REPORTS))
def test_dumps_matches_json_dumps_on_every_report(label):
    assert dumps(REPORTS[label]) == reference_dumps(REPORTS[label])


def test_dumps_encodes_the_library_reports_without_the_fallback(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dumps fell back to json.dumps")

    monkeypatch.setattr(ginv.serialize.json, "dumps", refuse)
    for obj in REPORTS.values():
        dumps(obj)


VALUES = {
    "empty-list": [],
    "empty-dict": {},
    "empty-inside": {"a": [], "b": {}, "c": [[], {}]},
    "nested-tuples": (1, (2.5, ("x", None)), ()),
    "tuple-rows": ((1.0, 2.0), (3.0, 4.0)),
    "ints": [0, -1, 2**64, -(10**40), True, False],
    "floats": [0.1, -0.0, 5e-324, 1e22, 1.7976931348623157e308, 123456789.0],
    "float-rows": [[0.1, -0.0], [5e-324, 1e300]],
    "ragged-rows": [[1.0, 2.0], [3.0]],
    "rows-with-an-int": [[1.0, 2.0], [3.0, 4]],
    "rows-with-a-string": [[1.0, "2"]],
    "one-empty-row": [[]],
    "escaped-strings": {"quote\"back\\slash": "tab\there\nnewline\u0001", "": ""},
    "non-ascii-strings": {"ü": "é€𝄞", "key": ["∑", "\ud800"]},
    "sorted-keys": {"b": 1, "a": {"d": 2, "c": 3}, "A": None},
    "scalar-string": "plain",
    "scalar-float": 2.5,
    "scalar-null": None,
    "numpy-float": {"x": np.float64(1.5)},
    "non-string-keys": {1: "one", 2: "two"},
}


@pytest.mark.parametrize("label", list(VALUES))
def test_dumps_matches_json_dumps(label):
    assert dumps(VALUES[label]) == reference_dumps(VALUES[label])


@pytest.mark.parametrize(
    "value",
    [float("nan"), [1.0, float("inf")], [[1.0, 2.0], [float("-inf"), 0.0]], {"a": {"b": float("nan")}}],
    ids=["nan", "infinity-in-list", "infinity-in-rows", "nested-nan"],
)
def test_dumps_rejects_non_finite_floats_as_json_does(value):
    with pytest.raises(ValueError) as expected:
        reference_dumps(value)
    with pytest.raises(ValueError) as got:
        dumps(value)
    assert str(got.value) == str(expected.value)


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_matrix_shape_is_read_by_the_config_integer_rule(exact):
    # rows and cols are integers as config integers are: an integral 1.0 counts
    extra = {"exact": True} if exact else {}
    got = matrix_from_json({"rows": 1.0, "cols": 1, "data": [1], **extra})
    assert got.shape == (1, 1) and got[0, 0] == 1
    for bad in (2.7, True, "1", -1, -1.0, None):
        with pytest.raises(InputError, match="matrix rows"):
            matrix_from_json({"rows": bad, "cols": 1, "data": [1], **extra})


@pytest.mark.parametrize("rows", [2.7, True, "1"], ids=["fraction", "boolean", "string"])
def test_cli_rejects_a_matrix_shape_that_is_not_an_integer(tmp_path, capsys, rows):
    from ginv.cli import cli

    obj = {k: matrix_to_json(np.eye(2)) for k in ("a", "p", "q")}
    obj["q"] = matrix_to_json(np.zeros((2, 2)))
    obj["a"]["rows"] = rows
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code = cli(["compute", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
