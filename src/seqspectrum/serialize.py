"""Wire formats: JSON in, JSON/CSV out, deterministically.

Complex numbers travel as [re, im] pairs; matrices as {"d": n,
"entries": [row-major pairs]}; sequences either materialized or as the
generator descriptor that regenerates them bit-identically.  Output is
serialized with sorted keys and repr-quality floats, so identical
inputs and seeds give byte-identical reports.  All input validation
failures raise :class:`ParseError` (CLI exit 1), never a bare KeyError
or ValueError.

Pairs have one encoder, :func:`cnum_array`, and one decoder,
:func:`parse_cnum_array`.  The encoder gives the float64 pair array,
which wire dicts hold as it is.  :func:`dumps_report` writes a report
in one recursive pass, laying out the text ``json.dumps(indent=2,
sort_keys=True)`` would; :func:`json_default` converts each package
object one level at a time, and each float64 array is written as one
``%r`` template of its shape, filled with all its values at once.  The
decoder takes JSON ints, floats and bools, no list empty or ragged,
every value finite, and keeps each float's bits.

Every integer field (``d``, ``p``, ``seed``, ``horizon``) has one check,
:func:`_parse_int`, which takes JSON integers only: ``true`` and
``false`` read as 1 and 0 in a pair, but not there.
"""

import csv
import dataclasses
import io
import json
import numbers
import sys

import numpy as np

from .dynamics import DelaySystem, ForcingSpec
from .errors import ParseError, PreconditionError
from .linalg import CMatrix, CVector, MAX_DIM
from .sequences import BoundedSeq, MAX_HORIZON, MIN_HORIZON, modes_plus_decay


def cnum(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cnum_array(a) -> np.ndarray:
    """Complex array-like as a float64 array of [re, im] pairs on a new
    last axis: a vector becomes a (n, 2) array, a table a (n, d, 2) one."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1)


_NESTING = ("a [re, im] pair", "a nonempty list of [re, im] pairs", "a nonempty list of equal-length lists of pairs")


def parse_cnum_array(obj, what: str, ndim: int) -> np.ndarray:
    """Lists of [re, im] pairs nested ``ndim`` deep (0 for one pair) as a
    complex128 array of ``ndim`` axes; the inverse of :func:`cnum_array`."""
    expected = f"{what} must be {_NESTING[ndim]} of finite real numbers"
    try:
        arr = np.array(obj)  # ValueError when ragged
        # ints past int64 make an object array of numbers; strings, None and dicts do not
        if arr.dtype.kind not in "biuf" and not all(isinstance(t, numbers.Real) for t in arr.flat):
            raise TypeError
        pairs = np.ascontiguousarray(arr, dtype=np.float64)  # OverflowError past float range
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(expected) from exc
    if arr.shape[ndim:] != (2,) or not arr.size or not np.isfinite(pairs).all():
        raise ParseError(expected)
    # a view keeps each part's bits; re + 1j * im would turn an imaginary -0.0 into +0.0
    return pairs.view(np.complex128)[..., 0]


def vector_to_json(v) -> np.ndarray:
    return cnum_array(np.ravel(getattr(v, "data", v)))


def matrix_to_json(a: CMatrix) -> dict:
    return {"d": a.dim, "entries": cnum_array(a.data.reshape(-1))}


def _parse_int(value, key: str, lo: int, hi: float, what: str) -> int:
    """The integer field ``key`` of ``what`` when it lies in [lo, hi] (hi
    is ``np.inf`` for no upper end).  ``type(value) is int`` turns away
    JSON true and false, which Python counts as the ints 1 and 0."""
    if type(value) is not int or not lo <= value <= hi:
        try:
            got = repr(value)
        except ValueError:  # str() of an int past the interpreter's digit limit, alone or in a list
            got = f"an int of {value.bit_length()} bits" if type(value) is int else f"a {type(value).__name__}"
        raise ParseError(f"{what}: {key!r} must be an integer in [{lo}, {hi}], got {got}")
    return value


def parse_matrix(obj, what: str = "matrix") -> CMatrix:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object with 'd' and 'entries'")
    d = _parse_int(obj.get("d"), "d", 1, MAX_DIM, what)
    entries = parse_cnum_array(obj.get("entries"), f"{what} entries", 1)
    if len(entries) != d * d:
        raise ParseError(f"{what}: 'entries' must list d*d = {d * d} pairs")
    return CMatrix(entries.reshape(d, d))


def parse_forcing(obj, what: str = "forcing") -> ForcingSpec:
    if obj is None:
        return ForcingSpec("zero")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{what} must be an object with a 'kind'")
    kind = obj["kind"]
    param = obj.get("param")  # handed on as given: ForcingSpec rejects one where its kind takes none
    try:
        if kind == "zero":
            return ForcingSpec(kind, param)
        if kind == "custom_table":
            return ForcingSpec(kind, param, table=parse_cnum_array(obj.get("values"), f"{what} values", 2))
        if kind in ("geometric", "power", "log_decay"):
            if kind != "log_decay" and not isinstance(param, numbers.Real):
                raise ParseError(f"{what}: kind {kind!r} needs a numeric 'param'")
            direction = obj.get("direction")
            if direction is not None:
                direction = parse_cnum_array(direction, f"{what} direction", 1)
            seed = _parse_int(obj.get("seed", 0), "seed", 0, np.inf, what)
            return ForcingSpec(kind, param, direction, seed=seed)
    # ForcingSpec's own checks, and float() of an int past the float range
    except (PreconditionError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    raise ParseError(f"{what}: unknown kind {kind!r}")


def forcing_to_json(f: ForcingSpec) -> dict:
    out: dict = {"kind": f.kind}
    if f.param is not None:
        out["param"] = f.param
    if f.kind == "custom_table":
        out["values"] = cnum_array(f.table)
    else:
        if f.direction is not None:
            out["direction"] = cnum_array(f.direction)
        out["seed"] = f.seed
    return out


def parse_system(obj) -> tuple[DelaySystem, int]:
    if not isinstance(obj, dict):
        raise ParseError("system must be an object")
    for key in ("B", "initial", "horizon"):
        if key not in obj:
            raise ParseError(f"system is missing {key!r}")
    b = parse_matrix(obj["B"], "system.B")
    p = _parse_int(obj.get("p", 1), "p", 1, np.inf, "system")
    initial = parse_cnum_array(obj["initial"], "system initial vectors", 2)
    forcing = parse_forcing(obj.get("forcing"), "system.forcing")
    horizon = _parse_int(obj["horizon"], "horizon", MIN_HORIZON, MAX_HORIZON, "system")
    try:
        system = DelaySystem(b, p, initial, forcing)
    except PreconditionError as exc:
        raise ParseError(f"system: {exc}") from exc
    return system, horizon


def system_to_json(system: DelaySystem, horizon: int) -> dict:
    return {
        "B": matrix_to_json(system.b),
        "p": system.p,
        "initial": cnum_array(system.initial),
        "forcing": forcing_to_json(system.forcing),
        "horizon": horizon,
    }


def sequence_to_json(x: BoundedSeq) -> dict:
    """Emit a sequence: in its modes-plus-decay descriptor form whenever
    it has one (the descriptor regenerates it exactly), otherwise
    materialized.  ``sequence_to_json(BoundedSeq(x.values))`` is the
    materialized form of any sequence."""
    desc = x.descriptor
    if desc is not None and desc.get("kind") == "modes_plus_decay":
        decay = desc["decay"]
        return {
            "kind": "modes_plus_decay",
            "d": x.dim,
            "modes": [{"theta": cnum(t), "v": cnum_array(v)} for t, v in desc["modes"]],
            "decay": {"type": "none", "param": None}
            if decay is None
            else {"type": decay[0], "param": decay[1]},
            "horizon": desc["horizon"],
            "seed": desc["seed"],
        }
    return {
        "kind": "materialized",
        "d": x.dim,
        "values": cnum_array(x.values),
    }


def parse_sequence(obj) -> BoundedSeq:
    """A ``materialized`` window or a ``modes_plus_decay`` descriptor,
    alone or in a simulator report envelope (an object with a 'sequence'
    member), so simulation output pipes straight into the scan and mode commands."""
    what = "sequence"
    while isinstance(obj, dict) and "sequence" in obj and "kind" not in obj:
        obj = obj["sequence"]
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{what} must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "materialized":
        d = _parse_int(obj.get("d"), "d", 1, MAX_DIM, what)
        rows = parse_cnum_array(obj.get("values"), f"{what} values", 2)
        if rows.shape[0] < MIN_HORIZON or rows.shape[1] != d:
            raise ParseError(f"{what}: 'values' must list at least {MIN_HORIZON} vectors of dimension d = {d}")
        return BoundedSeq(rows)
    if kind == "modes_plus_decay":
        modes_obj = obj.get("modes")
        if not isinstance(modes_obj, list):
            raise ParseError(f"{what}: 'modes' must be a list")
        modes = []
        for m in modes_obj:
            if not isinstance(m, dict) or "theta" not in m or "v" not in m:
                raise ParseError(f"{what}: each mode needs 'theta' and 'v'")
            theta = complex(parse_cnum_array(m["theta"], f"{what} mode theta", 0))
            modes.append((theta, parse_cnum_array(m["v"], f"{what} mode v", 1)))
        horizon = _parse_int(obj.get("horizon"), "horizon", MIN_HORIZON, MAX_HORIZON, what)
        seed = _parse_int(obj.get("seed", 0), "seed", 0, np.inf, what)
        dim = _parse_int(obj.get("d", len(modes[0][1]) if modes else None), "d", 1, MAX_DIM, what)
        try:
            decay_obj = obj.get("decay")
            decay = None
            if decay_obj is not None:
                if not isinstance(decay_obj, dict) or "type" not in decay_obj:
                    raise ParseError(f"{what}: 'decay' must be an object with a 'type'")
                param = decay_obj.get("param")
                if not isinstance(param, numbers.Real) and not (param is None and decay_obj["type"] in ("log", "none")):
                    raise ParseError(f"{what}: decay type {decay_obj['type']!r} needs a numeric 'param'")
                # float() inside the try: an int past float range is a ParseError
                decay = (decay_obj["type"], None if param is None else float(param))
            return modes_plus_decay(modes, horizon, decay=decay, seed=seed, dim=dim)
        except (PreconditionError, OverflowError) as exc:
            raise ParseError(f"{what}: {exc}") from exc
    raise ParseError(f"{what}: unknown kind {kind!r}")


def json_default(obj):
    """One level of a package object as JSON data, for a value that is
    not JSON already: :func:`dumps_report` writes whatever the result
    holds, and ``cli.main`` hands it to ``json.dumps`` as its hook."""
    if isinstance(obj, complex):
        return cnum(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, CVector):
        return vector_to_json(obj)
    if isinstance(obj, CMatrix):
        return matrix_to_json(obj)
    if isinstance(obj, BoundedSeq):
        return sequence_to_json(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return cnum_array(obj) if np.iscomplexobj(obj) else obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(o, nl: str, out: list) -> None:
    """Append to ``out`` the text of ``o`` as ``json.dumps(o, indent=2,
    sort_keys=True, default=json_default)`` writes it, where ``nl`` is
    the newline and indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(json.encoder.encode_basestring_ascii(o))
    elif o is None or isinstance(o, int):  # bools are ints
        out.append("null" if o is None else "true" if o is True else "false" if o is False else int.__repr__(o))
    elif isinstance(o, float):
        # json's words for inf and nan; no finite repr holds these letters
        out.append(float.__repr__(o).replace("inf", "Infinity").replace("nan", "NaN"))
    elif isinstance(o, (list, tuple, dict)):
        brackets, heads = "[]", [""] * len(o)
        if isinstance(o, dict):  # its values in key order, each headed by its key
            keys = sorted(o)
            heads = [json.encoder.encode_basestring_ascii(k) + ": " for k in keys]  # TypeError unless a string
            brackets, o = "{}", [o[k] for k in keys]
        inner = nl + "  "
        for i, (head, item) in enumerate(zip(heads, o)):
            out.append(("," if i else brackets[0]) + inner + head)
            _write(item, inner, out)
        out.append(nl + brackets[1] if o else brackets)
    elif isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim and o.size:
        # a %r template of the array's shape, built from the innermost
        # axis out by repeating the inner template, takes every value at once
        nls = [nl + "  " * j for j in range(o.ndim + 1)]
        text = "%r"
        for j in reversed(range(o.ndim)):
            text = "[" + nls[j + 1] + ("," + nls[j + 1]).join([text] * o.shape[j]) + nls[j] + "]"
        text %= tuple(o.ravel().tolist())
        out.append(text if np.isfinite(o).all() else text.replace("inf", "Infinity").replace("nan", "NaN"))
    else:
        _write(json_default(o), nl, out)


def dumps_report(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one
    trailing newline, laid out by one recursive pass of :func:`_write`.
    Each float64 array is one ``%r`` template of its shape, filled with
    all its values at once.  Dict keys must be strings: any other key is
    a TypeError, where ``json.dumps`` would write it as text (no report
    has one)."""
    out: list = []
    _write(obj, "\n", out)
    out.append("\n")  # not joined text + "\n": that would copy the whole report once more
    return "".join(out)


def resolvent_scan_csv(samples) -> str:
    """Plot-ready CSV for a resolvent grid scan."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re(lambda)", "im(lambda)", "norm", "singular_flag"])
    for s in samples:
        writer.writerow([repr(s.lam.real), repr(s.lam.imag), repr(s.resolvent_norm), int(s.singular_flag)])
    return buf.getvalue()


def load_json(path: str):
    """The JSON value in the file at ``path``, or on standard input for "-"."""
    source = "standard input" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError and the int digit limit are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{source} is not valid JSON: {exc}") from exc
