import copy
import dataclasses
import functools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from seqspectrum.dynamics import DelaySystem, ForcingSpec, simulate_delay
from seqspectrum import serialize
from seqspectrum.errors import ParseError
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.resolvent import ResolventSample, resolvent_neumann, resolvent_norm_scan
from seqspectrum.sequences import MAX_HORIZON, BoundedSeq, angular_distance, modes_plus_decay
from seqspectrum.serialize import (
    cnum,
    cnum_array,
    dumps_report,
    forcing_to_json,
    load_json,
    matrix_to_json,
    parse_cnum_array,
    parse_forcing,
    parse_matrix,
    parse_sequence,
    parse_system,
    resolvent_scan_csv,
    sequence_to_json,
    system_to_json,
    vector_to_json,
)


def test_cnum_round_trip():
    z = 1.5 - 2.25j
    assert complex(parse_cnum_array(cnum(z), "complex number", 0)) == z


def test_parse_cnum_rejects_bad_shapes():
    with pytest.raises(ParseError):
        parse_cnum_array([1.0], "complex number", 0)
    with pytest.raises(ParseError):
        parse_cnum_array([1.0, 2.0, 3.0], "complex number", 0)
    with pytest.raises(ParseError):
        parse_cnum_array(["a", 0.0], "complex number", 0)
    with pytest.raises(ParseError):
        parse_cnum_array([float("inf"), 0.0], "complex number", 0)


def test_vector_round_trip():
    v = CVector([1.0 + 2j, -3.5])
    got = CVector(parse_cnum_array(vector_to_json(v), "vector", 1))
    assert np.array_equal(got.data, v.data)


def test_matrix_round_trip():
    m = CMatrix([[1.0, 2j], [0.0, 1.0]])
    j = matrix_to_json(m)
    assert j["d"] == 2 and len(j["entries"]) == 4  # row-major flattening
    got = parse_matrix(j)
    assert np.array_equal(got.data, m.data)


def test_parse_matrix_validation():
    with pytest.raises(ParseError):
        parse_matrix({"d": 2, "entries": [[1.0, 0.0]]})  # wrong entry count
    with pytest.raises(ParseError):
        parse_matrix({"entries": []})
    with pytest.raises(ParseError):
        parse_matrix({"d": 65, "entries": [[0.0, 0.0]] * 65 * 65})


def test_forcing_round_trip_all_kinds():
    specs = [
        ForcingSpec("zero"),
        ForcingSpec("geometric", 0.5, direction=CVector([1.0, 2.0])),
        ForcingSpec("power", 1.5, seed=3),
        ForcingSpec("log_decay", seed=4),
    ]
    for f in specs:
        f2 = parse_forcing(forcing_to_json(f))
        assert f2.kind == f.kind
        assert np.array_equal(f.materialize(16, 2), f2.materialize(16, 2))
    custom = ForcingSpec("custom_table", table=np.eye(16))
    custom2 = parse_forcing(forcing_to_json(custom))
    assert np.array_equal(custom.materialize(16, 16), custom2.materialize(16, 16))


def test_parse_forcing_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_forcing({"kind": "fancy"})
    with pytest.raises(ParseError):
        parse_forcing({"kind": "geometric", "param": 2.0})


def test_parse_forcing_default_is_zero():
    f = parse_forcing(None)
    assert f.kind == "zero"


def test_system_round_trip():
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    j = system_to_json(system, 64)
    system2, horizon = parse_system(j)
    assert horizon == 64
    assert system2.p == 2
    a, _ = simulate_delay(system, 64)
    b, _ = simulate_delay(system2, 64)
    assert np.array_equal(a.values, b.values)


def test_parse_system_missing_keys():
    with pytest.raises(ParseError, match="initial"):
        parse_system({"B": matrix_to_json(CMatrix(np.eye(1))), "horizon": 64})


def test_sequence_descriptor_round_trip():
    x = modes_plus_decay([(1j, (1.0, 0.5))], 128, decay=("power", 1.5), seed=9)
    j = sequence_to_json(x)
    assert j["kind"] == "modes_plus_decay"
    assert j["modes"][0]["theta"] == [0.0, 1.0]
    x2 = parse_sequence(j)
    assert np.array_equal(x.values, x2.values)  # regenerated bit-for-bit


def test_sequence_materialized_round_trip():
    rng = np.random.default_rng(2)
    x = BoundedSeq(rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))
    j = sequence_to_json(x)
    assert j["kind"] == "materialized"
    x2 = parse_sequence(j)
    assert np.array_equal(x.values, x2.values)


def test_sequence_envelope_accepted():
    x = BoundedSeq(np.ones((16, 1)))
    j = {"sequence": sequence_to_json(x), "extra_report": {"ignored": True}}
    x2 = parse_sequence(j)
    assert np.array_equal(x.values, x2.values)


def test_parameters_past_the_float_range_are_parse_errors():
    # float() of a JSON integer past the float range raises OverflowError
    huge = 10**400
    with pytest.raises(ParseError):
        parse_forcing({"kind": "geometric", "param": huge})
    desc = {"kind": "modes_plus_decay", "modes": [], "d": 1, "horizon": 16, "decay": {"type": "geometric", "param": huge}}
    with pytest.raises(ParseError):
        parse_sequence(desc)
    system = system_to_json(DelaySystem(CMatrix(np.eye(1)), 1, [CVector([1.0])], ForcingSpec("zero")), 16)
    system["forcing"] = {"kind": "geometric", "param": huge}
    with pytest.raises(ParseError):
        parse_system(system)


def test_seeds_must_be_non_negative_integers():
    desc = {"kind": "modes_plus_decay", "modes": [], "d": 1, "horizon": 16, "decay": {"type": "geometric", "param": 0.5}}
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(ParseError, match=r"'seed' must be an integer in \[0, inf\]"):
            parse_sequence({**desc, "seed": seed})
        with pytest.raises(ParseError, match=r"'seed' must be an integer in \[0, inf\]"):
            parse_forcing({"kind": "power", "param": 2.0, "seed": seed})


_ONE_PAIR_ROWS = [[[1, 0]]] * 16
_BARE_DESCRIPTOR = {"kind": "modes_plus_decay", "modes": [], "d": 1, "horizon": 16}
_ONE_MODE_DESCRIPTOR = {"kind": "modes_plus_decay", "modes": [{"theta": [0, 1], "v": [[1, 0]]}], "horizon": 16}
_BARE_SYSTEM = {"B": {"d": 1, "entries": [[0.5, 0]]}, "initial": [[[1, 0]]], "horizon": 16}


@pytest.mark.parametrize(
    "parse, obj, key",
    [
        (parse_matrix, {"d": True, "entries": [[1, 0]]}, "d"),
        (parse_sequence, {"kind": "materialized", "d": True, "values": _ONE_PAIR_ROWS}, "d"),
        (parse_sequence, {**_BARE_DESCRIPTOR, "d": True}, "d"),
        (parse_sequence, {**_BARE_DESCRIPTOR, "seed": True}, "seed"),
        (parse_sequence, {**_BARE_DESCRIPTOR, "horizon": True}, "horizon"),
        (parse_system, {**_BARE_SYSTEM, "p": True}, "p"),
        (parse_system, {**_BARE_SYSTEM, "horizon": True}, "horizon"),
        (parse_forcing, {"kind": "power", "param": 2.0, "seed": True}, "seed"),
    ],
)
def test_integer_fields_reject_json_booleans(parse, obj, key):
    # Python counts True as the int 1; on the wire it is not an integer
    with pytest.raises(ParseError, match=f"'{key}' must be an integer"):
        parse(obj)


@pytest.mark.parametrize(
    "parse, obj, got",
    [
        (parse_matrix, {"d": 10**5000, "entries": [[1, 0]]}, "an int of 16610 bits"),
        (parse_sequence, {**_BARE_DESCRIPTOR, "seed": -(10**5000)}, "an int of 16610 bits"),
        (parse_system, {**_BARE_SYSTEM, "p": -(10**5000)}, "an int of 16610 bits"),
        (parse_matrix, {"d": [10**5000], "entries": [[1, 0]]}, "a list"),
    ],
)
def test_integer_fields_past_the_digit_limit_are_parse_errors(parse, obj, got):
    # repr of an int past 4,300 digits raises ValueError, so the message gives its bit length
    with pytest.raises(ParseError, match=f"got {got}$"):
        parse(obj)


def test_parse_sequence_unknown_kind():
    with pytest.raises(ParseError):
        parse_sequence({"kind": "mystery"})


def test_dumps_report_basic_values():
    assert json.loads(dumps_report(1 + 2j)) == [1.0, 2.0]
    assert json.loads(dumps_report(CVector([1j]))) == [[0.0, 1.0]]
    assert json.loads(dumps_report((1, "a"))) == [1, "a"]
    assert json.loads(dumps_report({"k": np.float64(0.5)})) == {"k": 0.5}


def test_dumps_report_is_stable():
    obj = {"b": 1, "a": [1.0 + 0.5j]}
    out = dumps_report(obj)
    assert out.endswith("\n")
    assert out == dumps_report({"a": [1.0 + 0.5j], "b": 1})  # key order ignored
    parsed = json.loads(out)
    assert parsed["a"] == [[1.0, 0.5]]


def test_resolvent_scan_csv_format():
    rows = resolvent_scan_csv(
        [ResolventSample(1 + 2j, 0.5, False), ResolventSample(0.25j, 3.0, True)]
    )
    lines = rows.strip().split("\n")
    assert lines[0] == "re(lambda),im(lambda),norm,singular_flag"
    assert lines[1] == "1.0,2.0,0.5,0"
    assert lines[2] == "0.0,0.25,3.0,1"


def test_load_json_errors(tmp_path):
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(str(bad))


NEUMANN_REPORT = """\
{
  "last_term_norm": 0.0078125,
  "matrix": {
    "d": 2,
    "entries": [
      [
        -0.1171875,
        -0.46875
      ],
      [
        0.0,
        0.0
      ],
      [
        0.0,
        0.0
      ],
      [
        0.0,
        -0.5
      ]
    ]
  },
  "terms": 4
}
"""


def test_neumann_report_bytes():
    result = resolvent_neumann(CMatrix([[0.5, 0.0], [0.0, 0.0]]), 2j, 3)
    assert dumps_report(result) == NEUMANN_REPORT


def test_readme_json_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        obj = json.loads(block)
        if "B" in obj:
            parse_system(obj)
        elif "entries" in obj:
            parse_matrix(obj)
        else:
            parse_sequence(obj)


def test_readme_python_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    namespace = {}
    exec(block, namespace)
    # what the block's comments claim
    thetas = [p.theta for p in namespace["report"].detected]
    assert len(thetas) == 2
    for target in (1.0, -1.0):
        assert min(angular_distance(t, target) for t in thetas) <= 1e-6
    assert abs(namespace["gelfand_radius_estimate"](namespace["a"], 512).estimate - 1.0) <= 1e-2
    assert namespace["verdict"].limit_attained is True


# Arbitrary JSON over the wire-format keys.  Integers come only from
# [-100, 4096], past float range, or just past MAX_HORIZON and at 2**40:
# sizes the parsers must reject before anything is allocated.
WIRE_KEYS = [
    "kind", "d", "entries", "values", "modes", "theta", "v", "decay", "type",
    "param", "horizon", "seed", "B", "p", "initial", "forcing", "direction", "sequence",
]
WIRE_WORDS = [
    "materialized", "custom_table", "modes_plus_decay", "forced_system_output",
    "zero", "geometric", "power", "log_decay", "log", "none",
]
json_ints = st.integers(-100, 4096) | st.sampled_from([10**400, -(10**400), MAX_HORIZON + 1, 2**40])
json_numbers = json_ints | st.floats() | st.booleans()  # floats include +-inf and NaN
pairs = st.lists(json_numbers, max_size=3)  # mostly the wrong length or not finite
json_values = st.recursive(
    st.none() | json_numbers | st.sampled_from(WIRE_WORDS) | st.text(max_size=3) | pairs,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(WIRE_KEYS), inner, max_size=6),
    max_leaves=30,
)


def _valid_wire_objects():
    """One small valid input of every wire form, as JSON data."""
    x = modes_plus_decay([(1j, [1.0, -0.5]), (-1.0, [0.0, 2.0])], 16, decay=("power", 1.5), seed=3)
    system = DelaySystem(
        CMatrix([[0.5, 0.25j], [0.0, -0.5]]), 2, [CVector([1.0, 0.0]), CVector([0.0, 1.0j])],
        ForcingSpec("geometric", 0.5, direction=[1.0, 1.0j], seed=2),
    )
    forcings = [
        ForcingSpec("custom_table", table=np.ones((3, 2))),
        ForcingSpec("log_decay", seed=1),
        ForcingSpec("power", 2.0),
    ]
    envelope = {"sequence": sequence_to_json(x), "report": {"horizon": 16}}
    objs = [sequence_to_json(x), sequence_to_json(BoundedSeq(x.values)), envelope, system_to_json(system, 32)]
    objs += [forcing_to_json(f) for f in forcings] + [vector_to_json(CVector([1.0, 2.0j])), [0.5, -0.0]]
    return json.loads(dumps_report(objs))


VALID_WIRE_OBJECTS = _valid_wire_objects()


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def corrupted_wire_objects(draw):
    """A valid wire object with one member replaced by arbitrary JSON, or
    removed, so that every check on the way in gets reached."""
    obj = copy.deepcopy(draw(st.sampled_from(VALID_WIRE_OBJECTS)))
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return draw(json_values)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return obj


def _decay_descriptor(decay_type, param):
    return {"kind": "modes_plus_decay", "d": 1, "modes": [], "horizon": 16, "decay": {"type": decay_type, "param": param}}


NON_FINITE_PARAM_INPUTS = [
    {"kind": "power", "param": math.inf},
    _decay_descriptor("power", math.inf),
    _decay_descriptor("log", math.nan),
    {"B": {"d": 1, "entries": [[0.5, 0]]}, "initial": [[[1, 0]]], "horizon": 16, "forcing": {"kind": "power", "param": math.inf}},
    {"kind": "log_decay", "param": math.inf},
    _decay_descriptor("none", math.inf),
]

#: (parser, input, message) for each wire error branch of the parsers
WIRE_ERRORS = [
    (parse_forcing, {"kind": "geometric", "param": "0.5"}, "needs a numeric 'param'"),
    (parse_system, {"B": {"d": 1, "entries": [[0.5, 0]]}, "p": 65, "initial": [[[1, 0]]], "horizon": 256}, r"delay p must be in \[1, 64\], got 65"),
    (parse_sequence, {"kind": "materialized", "d": 1, "values": [[[1, 0]]] * 3}, "must list at least 16 vectors"),
    (parse_sequence, {"kind": "modes_plus_decay", "modes": {}, "horizon": 16}, "'modes' must be a list"),
    (parse_sequence, {"kind": "modes_plus_decay", "modes": [{"theta": [1, 0]}], "horizon": 16}, "needs 'theta' and 'v'"),
    (parse_sequence, {"kind": "modes_plus_decay", "d": 1, "modes": [], "horizon": 16, "decay": "none"}, "'decay' must be an object"),
    (parse_sequence, _decay_descriptor("power", "x"), "decay type 'power' needs a numeric 'param'"),
    (
        parse_sequence,
        {"kind": "forced_system_output", "B": {"d": 1, "entries": [[10, 0]]}, "initial": [[[1, 0]]], "horizon": 256},
        "unknown kind 'forced_system_output'",
    ),
    (parse_forcing, {"kind": "zero", "param": "abc"}, "kind 'zero' takes no parameter"),
    (parse_forcing, {"kind": "log_decay", "param": 2.0}, "kind 'log_decay' takes no parameter"),
    (parse_sequence, {"kind": "custom_table", "d": 1, "values": _ONE_PAIR_ROWS}, "unknown kind 'custom_table'"),
    # a descriptor's d is read even where its modes give the dimension
    (parse_sequence, {**_ONE_MODE_DESCRIPTOR, "d": 1000}, r"'d' must be an integer in \[1, 64\], got 1000"),
    (parse_sequence, {**_ONE_MODE_DESCRIPTOR, "d": True}, r"'d' must be an integer in \[1, 64\], got True"),
    (parse_sequence, {**_ONE_MODE_DESCRIPTOR, "d": -5}, r"'d' must be an integer in \[1, 64\], got -5"),
    (parse_sequence, {**_ONE_MODE_DESCRIPTOR, "d": "x"}, r"'d' must be an integer in \[1, 64\], got 'x'"),
    (parse_sequence, {**_ONE_MODE_DESCRIPTOR, "d": 3}, "dim contradicts the mode vectors"),
]

#: each parser with the emitter of what it returns
WIRE_EMITTERS = {
    functools.partial(parse_cnum_array, what="complex number", ndim=0): cnum_array,
    functools.partial(parse_cnum_array, what="vector", ndim=1): cnum_array,
    parse_matrix: matrix_to_json,
    parse_forcing: forcing_to_json,
    parse_system: lambda parsed: system_to_json(*parsed),
    parse_sequence: sequence_to_json,
}


@given(json_values | corrupted_wire_objects())
@example(NON_FINITE_PARAM_INPUTS[0])
@example(NON_FINITE_PARAM_INPUTS[1])
@example(NON_FINITE_PARAM_INPUTS[2])
@example(NON_FINITE_PARAM_INPUTS[3])
@example(NON_FINITE_PARAM_INPUTS[4])
@example(NON_FINITE_PARAM_INPUTS[5])
@example({"d": True, "entries": [[1, 0]]})
@example({"kind": "modes_plus_decay", "modes": [], "d": True, "horizon": 16})
@example(WIRE_ERRORS[0][1])
@example(WIRE_ERRORS[1][1])
@example(WIRE_ERRORS[2][1])
@example(WIRE_ERRORS[3][1])
@example(WIRE_ERRORS[4][1])
@example(WIRE_ERRORS[5][1])
@example(WIRE_ERRORS[6][1])
@example(WIRE_ERRORS[7][1])
@example(WIRE_ERRORS[8][1])
@example(WIRE_ERRORS[9][1])
@example(WIRE_ERRORS[10][1])
@example(WIRE_ERRORS[11][1])
@example(WIRE_ERRORS[12][1])
@example(WIRE_ERRORS[13][1])
@example(WIRE_ERRORS[14][1])
@example(WIRE_ERRORS[15][1])
def test_parsers_raise_only_parse_error(obj):
    """Each parser raises ParseError or returns an object whose wire form
    is strict JSON: whatever is accepted can be emitted again."""
    for parse, emit in WIRE_EMITTERS.items():
        try:
            parsed = parse(obj)
        except ParseError:
            continue
        helpers.strict_json(dumps_report(emit(parsed)))


@pytest.mark.parametrize("parse, obj, message", WIRE_ERRORS)
def test_wire_error_branches_name_the_fault(parse, obj, message):
    with pytest.raises(ParseError, match=message):
        parse(obj)


@pytest.mark.parametrize(
    "parse, obj",
    zip([parse_forcing, parse_sequence, parse_sequence, parse_system, parse_forcing, parse_sequence], NON_FINITE_PARAM_INPUTS),
)
def test_non_finite_decay_parameters_are_parse_errors(parse, obj):
    # a log_decay forcing takes no parameter at all, finite or not
    with pytest.raises(ParseError, match="takes no parameter" if obj.get("kind") == "log_decay" else "finite"):
        parse(obj)


def test_a_finite_log_decay_parameter_is_echoed():
    x = parse_sequence(_decay_descriptor("log", 2.5))
    assert sequence_to_json(x)["decay"] == {"type": "log", "param": 2.5}


def test_a_none_decay_parameter_is_echoed():
    for param in (0.3, None):
        x = parse_sequence(_decay_descriptor("none", param))
        assert sequence_to_json(x)["decay"] == {"type": "none", "param": param}
        assert not x.values.any()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7e308, -1.7e308]
pair_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4).map(lambda shape: shape + (2,)),
    elements=st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
)


@given(pair_arrays)
def test_parse_cnum_array_inverts_cnum_array_bitwise(parts):
    a = parts.view(np.complex128)[..., 0]
    for wire in (cnum_array(a), json.loads(dumps_report(cnum_array(a)))):
        got = parse_cnum_array(wire, "values", a.ndim)
        assert got.dtype == np.complex128 and got.shape == a.shape
        # compared as integers, since -0.0 == 0.0 as floats
        assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(a).view(np.uint64))


# Emitter inputs: float and complex arrays of depth 1-4 with sides 0-4 and
# awkward floats, numpy scalars and package objects, nested in dicts,
# lists, tuples and dataclasses.
AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]


@dataclasses.dataclass(frozen=True)
class _Node:
    left: object
    right: object


float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
    elements=st.sampled_from(AWKWARD_FLOATS) | st.floats(),
)
complex_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4).map(lambda shape: shape + (2,)),
    elements=st.sampled_from(AWKWARD_FLOATS) | st.floats(),
).map(lambda parts: parts.view(np.complex128)[..., 0])
numpy_scalars = st.sampled_from(
    [np.float64(-0.0), np.float64("nan"), np.float32(0.1), np.int64(-7), np.complex128(1 - 2j), np.complex64(0.5j)]
)
package_objects = st.sampled_from(
    [CVector([1.0, -0.0j]), CMatrix([[0.5, 1j], [-2.0, 1e-5]]), BoundedSeq(np.arange(32).reshape(16, 2) * (1 - 0.5j))]
)
# Record lists: records of one kind whose fields each draw from one
# strategy, so most share a layout and take one template, while a field
# that draws a float in one record and a pair in the next falls back.
record_fields = st.sampled_from(
    [
        st.floats(), st.sampled_from(AWKWARD_FLOATS), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
        st.complex_numbers(), numpy_scalars, st.floats() | st.integers() | st.none(), st.floats() | st.complex_numbers(),
        hnp.arrays(np.float64, (2, 1), elements=st.sampled_from(AWKWARD_FLOATS) | st.floats()),
        st.lists(st.floats(), min_size=2, max_size=2), st.lists(st.floats(), max_size=2), st.just([]), st.just({}),
    ]
)


def _record_lists(fields):
    a, b = fields
    return st.one_of(
        st.lists(st.builds(_Node, a, b), min_size=1, max_size=20),
        st.lists(st.fixed_dictionaries({"%s": a, "k": b}), min_size=1, max_size=20),
        st.lists(st.tuples(a, b), min_size=1, max_size=20),
    )


record_lists = st.tuples(record_fields, record_fields).flatmap(_record_lists)
report_leaves = (
    float_arrays | complex_arrays | numpy_scalars | package_objects | record_lists
    | st.floats() | st.integers() | st.complex_numbers() | st.booleans() | st.none() | st.text(max_size=3)
)
report_objects = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    | st.builds(_Node, inner, inner),
    max_leaves=8,
)


@given(report_objects)
@example({"a": np.ones(2), "b": "\x000", "c": ["\x0012", np.ones((1, 2))]})  # "\0<digits>" strings beside float blocks
@example({"\x01\t\n\"\\\x7f": "\x1f\u2028é☃\U0001f600", "é": ["\ud800"]})
@example([True, 1, False, 0, np.bool_(True), np.bool_(False), np.int64(1), np.float32(0.1), np.float32("inf")])
@example({"x": [np.float64("inf"), np.float64("-inf"), np.float64("nan"), np.float64(-0.0)], "y": np.float64("nan")})
@example(_Node({}, [[], (), {"e": {}}, np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3), dtype=np.complex128), ((),)]))
def test_dumps_report_matches_the_indented_encoder(obj):
    assert dumps_report(obj) == json.dumps(helpers.jsonable_oracle(obj), sort_keys=True, indent=2) + "\n"


def test_dumps_report_matches_the_indented_encoder_on_large_blocks():
    # the example above stops at 4 per side; a trajectory-sized block
    # repeats each level of the template thousands of times
    rng = np.random.default_rng(20)
    blocks = {}
    for shape in [(16384, 4, 2), (257,), (33, 3)]:
        flat = rng.standard_normal(shape).ravel()
        n = len(AWKWARD_FLOATS)
        for start in (0, flat.size // 2, flat.size - n):  # first, middle and last positions
            flat[start : start + n] = AWKWARD_FLOATS
        blocks[str(len(shape))] = flat.reshape(shape)
    obj = {"top": blocks, "nested": [{"deeper": [blocks]}]}  # two base indents per block
    assert dumps_report(obj) == json.dumps(helpers.jsonable_oracle(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1: 0.5}, {"a": [{None: 1}]}, {True: "t"}, {1.5: np.ones(2)}])
def test_dumps_report_takes_only_string_keys(obj):
    # json.dumps would write these keys as text; no report has them
    with pytest.raises(TypeError, match="string"):
        dumps_report(obj)


# Lists whose items share a layout, written as one template repeated once
# they hold 16 items, and lists whose layout changes partway, written item
# by item.
SHARED_LAYOUTS = {
    "non-finite floats": [_Node(math.inf, -0.0), _Node(-math.inf, math.nan), _Node(0.0, 1e-5)],
    "non-finite pair parts": [complex(math.inf, -0.0), complex(-0.0, math.nan), complex(-math.inf, 1.0)],
    "pairs in records": [_Node(complex(-0.0, math.inf), np.complex64(1)), _Node(1j, np.complex64(2 - 1j))],
    "bools against ints": [_Node(True, 1), _Node(False, 0), _Node(np.bool_(True), np.int64(1))],
    "none and numpy scalars": [
        {"a": None, "b": np.float32(0.1)},
        {"a": np.int64(-7), "b": np.float64("nan")},
        {"a": np.bool_(False), "b": 2.5},
    ],
    "nested float arrays": [
        _Node(np.array([[1.0, -0.0], [np.inf, np.nan]]), np.zeros(3)),
        _Node(np.ones((2, 2)), np.array([1e16, 5e-324, -np.inf])),
    ],
    "empty lists and dicts": [_Node([], {}), _Node((), {}), _Node([], {})],
    "strings": [("inf", "nan"), ("%s %d %%", '"quoted"'), ("é☃\U0001f600", "Infinity\n")],
    "keys with percent signs": [{"%s": 1.0, "%%": "%"}, {"%s": -0.0, "%%": "%d"}],
    "resolvent samples": [ResolventSample(complex(1.5, -0.0), math.inf, True), ResolventSample(-1.5j, 0.25, False)],
    "gelfand samples": [(1, 0.5), (2, -0.0), (3, math.nan)],
}
CHANGING_LAYOUTS = {
    "a record type": [_Node(1.0, 2.0), {"left": 1.0, "right": 2.0}],
    "a key": [{"a": 1.0}, {"b": 1.0}],
    "a length": [(1.0, 2.0), (1.0, 2.0, 3.0)],
    "a nesting": [_Node(1.0, [2.0]), _Node(1.0, 2.0)],
    "a float to a pair": [_Node(1.0, 2.0), _Node(1j, 2.0)],
    "an array shape": [_Node(np.zeros(2), 0), _Node(np.zeros(3), 0)],
    "an array to a list": [_Node(np.zeros(2), 0), _Node([0.0, 0.0], 0)],
}


@pytest.mark.parametrize(
    "items, shared",
    [(v, True) for v in SHARED_LAYOUTS.values()] + [(v, False) for v in CHANGING_LAYOUTS.values()],
    ids=list(SHARED_LAYOUTS) + list(CHANGING_LAYOUTS),
)
def test_record_lists_match_the_indented_encoder(items, shared):
    # the items as one column: laid out when they share a layout, refused when not
    assert serialize._layout(items, "\n  ", [], []) == shared
    for obj in (items, {"nested": [items, tuple(items)]}, items * 8, {"nested": [items * 8, tuple(items * 8)]}):
        assert dumps_report(obj) == json.dumps(helpers.jsonable_oracle(obj), sort_keys=True, indent=2) + "\n"


def test_resolvent_samples_take_the_template_path(monkeypatch):
    # no sample is converted one at a time: json_default is not called per sample
    calls, json_default = [], serialize.json_default
    monkeypatch.setattr(serialize, "json_default", lambda o: calls.append(o) or json_default(o))
    a = CMatrix([[0.5, 1j], [0.0, -0.25]])
    counts = []
    for points in (64, 512):
        samples = resolvent_norm_scan(a, 1.5 * np.exp(2j * np.pi * np.arange(points) / points))
        calls.clear()
        text = dumps_report({"samples": samples})
        counts.append(len(calls))
        assert text == json.dumps(helpers.jsonable_oracle({"samples": samples}), sort_keys=True, indent=2) + "\n"
    assert counts[0] == counts[1]


def test_a_record_list_report_holds_under_three_times_its_text():
    # the template's pieces, the slot values and the text; the writer that
    # went item by item held about 5.9 times the text at its peak
    a = CMatrix([[0.5, 1j], [0.0, -0.25]])
    report = {"samples": resolvent_norm_scan(a, 1.5 * np.exp(2j * np.pi * np.arange(4096) / 4096))}
    tracemalloc.start()
    try:
        text = dumps_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
