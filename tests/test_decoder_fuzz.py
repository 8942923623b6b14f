"""Round trips and fuzzing of the JSON decoders: every input gives a value or
an InputError, never another exception."""

import json
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ginv import EnsembleConfig, gen_scenario  # noqa: E402
from ginv.errors import InputError  # noqa: E402
from ginv.exact import ExactMatrix  # noqa: E402
from ginv.serialize import (  # noqa: E402
    dumps,
    exact_matrix_from_json,
    exact_matrix_to_json,
    matrix_from_json,
    matrix_to_json,
    scenario_from_json,
    scenario_to_json,
)

# Derandomized and without an example database, so every run tries the same
# inputs and leaves no files behind.
FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True, database=None, suppress_health_check=list(HealthCheck)
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "-4", "x", "1/0", "nan", "inf", " 3"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
# Objects shaped like matrices, so the fuzzing reaches past the first checks.
MATRIX_LIKE = st.fixed_dictionaries(
    {
        "rows": st.integers(-2, 3) | st.integers(0, 2**70) | SCALARS,
        "cols": st.integers(-2, 3) | st.integers(0, 2**70) | SCALARS,
        "data": st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=9) | JSON,
    },
    optional={"exact": SCALARS},
)


def _value_or_input_error(decode, d):
    try:
        decode(d)
    except InputError:
        pass


@FUZZ
@given(MATRIX_LIKE | JSON)
def test_matrix_decoder_raises_only_input_errors(d):
    _value_or_input_error(matrix_from_json, d)


@FUZZ
@given(MATRIX_LIKE | JSON)
def test_exact_matrix_decoder_raises_only_input_errors(d):
    _value_or_input_error(exact_matrix_from_json, d)


_SCENARIO = scenario_to_json(
    gen_scenario(EnsembleConfig(n_range=(2, 3), count=1, seed=1, theorems=("thm3.9",)), 0, "thm3.9")
)


@FUZZ
@given(
    st.sampled_from(sorted(_SCENARIO) + ["unknown"]),
    st.sampled_from([None, "rows", "cols", "data", "matrix", "tol_eq"]),
    JSON | MATRIX_LIKE,
)
def test_scenario_decoder_raises_only_input_errors(field, part, value):
    # One field of a valid scenario, or one part of it, replaced by junk.
    d = json.loads(dumps(_SCENARIO))
    target = d.get(field)
    if part is not None and isinstance(target, dict):
        if part != "matrix" and isinstance(target.get("matrix"), dict):
            target = target["matrix"]
        target[part] = value
    else:
        d[field] = value
    _value_or_input_error(scenario_from_json, d)


@FUZZ
@given(JSON)
def test_scenario_decoder_rejects_any_json_value(d):
    _value_or_input_error(scenario_from_json, d)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@FUZZ
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrix_round_trip_is_bit_exact(rows, cols, data):
    parts = data.draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    back = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
    assert back.shape == (rows, cols)
    np.testing.assert_array_equal(back.view(np.uint64), m.view(np.uint64))


RATIONAL = st.fractions(max_denominator=10**30) | st.integers(-(10**40), 10**40).map(Fraction)


@FUZZ
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_exact_matrix_round_trip_is_entry_exact(rows, cols, data):
    entries = [[(str(data.draw(RATIONAL)), str(data.draw(RATIONAL))) for _ in range(cols)] for _ in range(rows)]
    m = ExactMatrix.from_strings(entries)
    back = exact_matrix_from_json(json.loads(dumps(exact_matrix_to_json(m))))
    assert (back.rows, back.cols) == (rows, cols)
    assert all(back.entry(i, j).as_strings() == m.entry(i, j).as_strings() for i in range(rows) for j in range(cols))


@FUZZ
@given(st.integers(0, 10**6), st.sampled_from(["thm3.4", "thm3.9", "thm2.4", "tm2.7"]))
def test_scenario_round_trip_keeps_every_matrix(seed, theorem):
    s = gen_scenario(EnsembleConfig(n_range=(2, 4), count=1, seed=seed, theorems=(theorem,)), 0, theorem)
    back = scenario_from_json(json.loads(dumps(scenario_to_json(s))))
    for name in ("a", "delta_a"):
        np.testing.assert_array_equal(getattr(back, name), getattr(s, name))
    for name in ("p", "q", "p_prime", "q_prime"):
        mine, theirs = getattr(s, name), getattr(back, name)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            np.testing.assert_array_equal(theirs.m, mine.m)
            assert theirs.rank == mine.rank
    assert back.tol == s.tol
