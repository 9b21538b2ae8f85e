import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from seqspectrum.dynamics import DelaySystem, ForcingSpec, simulate_delay
from seqspectrum.errors import ParseError
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.resolvent import ResolventSample, resolvent_neumann
from seqspectrum.sequences import MAX_HORIZON, BoundedSeq, custom_table, modes_plus_decay
from seqspectrum.serialize import (
    cnum,
    cnum_array,
    dumps_report,
    forcing_to_json,
    load_json,
    matrix_to_json,
    parse_cnum,
    parse_cnum_array,
    parse_forcing,
    parse_matrix,
    parse_sequence,
    parse_system,
    parse_vector,
    resolvent_scan_csv,
    sequence_to_json,
    system_to_json,
    vector_to_json,
)


def test_cnum_round_trip():
    z = 1.5 - 2.25j
    assert parse_cnum(cnum(z)) == z


def test_parse_cnum_rejects_bad_shapes():
    with pytest.raises(ParseError):
        parse_cnum([1.0])
    with pytest.raises(ParseError):
        parse_cnum([1.0, 2.0, 3.0])
    with pytest.raises(ParseError):
        parse_cnum(["a", 0.0])
    with pytest.raises(ParseError):
        parse_cnum([float("inf"), 0.0])


def test_vector_round_trip():
    v = CVector([1.0 + 2j, -3.5])
    got = parse_vector(vector_to_json(v))
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
        ForcingSpec.zero(),
        ForcingSpec.geometric(0.5, direction=CVector([1.0, 2.0])),
        ForcingSpec.power(1.5, seed=3),
        ForcingSpec.log_decay(seed=4),
    ]
    for f in specs:
        f2 = parse_forcing(forcing_to_json(f))
        assert f2.kind == f.kind
        assert np.array_equal(f.materialize(16, 2), f2.materialize(16, 2))
    custom = ForcingSpec.custom(np.eye(16))
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
        CMatrix.identity(1), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec.zero()
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
        parse_system({"B": matrix_to_json(CMatrix.identity(1)), "horizon": 64})


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
    x = custom_table(np.ones((16, 1)))
    j = {"sequence": sequence_to_json(x), "extra_report": {"ignored": True}}
    x2 = parse_sequence(j)
    assert np.array_equal(x.values, x2.values)


def test_sequence_forced_system_output():
    system = DelaySystem(
        CMatrix.identity(1), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec.zero()
    )
    j = system_to_json(system, 64)
    j["kind"] = "forced_system_output"
    x = parse_sequence(j)
    want, _ = simulate_delay(system, 64)
    assert np.array_equal(x.values, want.values)


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
        ForcingSpec.geometric(0.5, direction=[1.0, 1.0j], seed=2),
    )
    forced = system_to_json(system, 32)
    forced["kind"] = "forced_system_output"
    forcings = [ForcingSpec.custom(np.ones((3, 2))), ForcingSpec.log_decay(seed=1), ForcingSpec.power(2.0)]
    objs = [sequence_to_json(x), sequence_to_json(x, prefer_descriptor=False), forced, system_to_json(system, 32)]
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


@given(json_values | corrupted_wire_objects())
def test_parsers_raise_only_parse_error(obj):
    for parse in (parse_cnum, parse_vector, parse_matrix, parse_forcing, parse_system, parse_sequence):
        try:
            parse(obj)
        except ParseError:
            pass


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
# a string of a placeholder's exact form makes the emitter raise (tested below)
report_strings = st.text(max_size=3).filter(lambda t: not re.fullmatch("\x00[0-9]+", t))
report_leaves = (
    float_arrays | complex_arrays | numpy_scalars | package_objects
    | st.floats() | st.integers() | st.complex_numbers() | st.booleans() | st.none() | report_strings
)
report_objects = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(report_strings, inner, max_size=3)
    | st.builds(_Node, inner, inner),
    max_leaves=8,
)


@given(report_objects)
def test_dumps_report_matches_the_indented_encoder(obj):
    assert dumps_report(obj) == json.dumps(helpers.jsonable_oracle(obj), sort_keys=True, indent=2) + "\n"


def test_dumps_report_refuses_a_placeholder_string():
    with pytest.raises(ValueError, match="placeholder"):
        dumps_report({"a": np.ones(2), "b": "\x000"})
