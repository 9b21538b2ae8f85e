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
which wire dicts hold as it is.  :func:`dumps_report` lays out the text
``json.dumps(indent=2, sort_keys=True)`` would write as one template
with a ``%s`` slot per scalar, filled by one ``%``.  One rule builds it:
a list of 16 or more items that share a layout, a float64 array along
each axis and a list of records of one dataclass alike, is its first
item's template repeated, so its values are gathered a column at a
time, never an item at a time.  :func:`json_default` converts each
package object one level at a time.  The decoder takes JSON ints,
floats and bools, no list empty or ragged, every value finite, and
keeps each float's bits.

Every integer field (``d``, ``p``, ``seed``, ``horizon``) has one check,
:func:`_parse_int`, which takes JSON integers only: ``true`` and
``false`` read as 1 and 0 in a pair, but not there.
"""

import csv
import dataclasses
import functools
import io
import itertools
import json
import numbers
import operator
import sys

import numpy as np

from .dynamics import DelaySystem, ForcingSpec
from .errors import ParseError, PreconditionError
from .linalg import CMatrix, CVector, MAX_DIM
from .sequences import BoundedSeq, MAX_HORIZON, MIN_HORIZON, _handed_over, modes_plus_decay


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
        return _handed_over(rows, None)  # finite, as parse_cnum_array checks
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


def _slot(v):
    """The slot value of one string, None, bool, int or float, or of a
    numpy scalar of one, read as :func:`json_default` reads it: an int or
    finite float as itself, as ``%s`` writes its repr, anything else as
    its JSON text."""
    if type(v) is int or type(v) is float and v - v == 0.0:
        return v
    v = v.item() if isinstance(v, np.generic) else v
    if isinstance(v, str):
        return json.encoder.encode_basestring_ascii(v)
    if v is None or isinstance(v, int):  # bools are ints
        return "null" if v is None else "true" if v is True else "false" if v is False else int.__repr__(v)
    # json's words for inf and nan; no finite repr holds these letters
    return float.__repr__(v).replace("inf", "Infinity").replace("nan", "NaN")


_BOOL_TOKENS = np.array(["false", "true"], dtype=object)

#: Items a list needs before they are laid out as one column: a column's
#: numpy calls cost more than a shorter list's items laid out one by one.
_COLUMN_MIN = 16

_KINDS = {"scalar": (float, np.floating, str, int, type(None), np.bool_, np.integer), "pair": (complex, np.complexfloating),
          "list": (list, tuple), "dict": dict, "block": np.ndarray}


@functools.cache
def _kind(t):
    """How a value of type ``t`` is laid out: as one ``"scalar"`` slot, a
    ``"pair"`` of float slots, a ``"list"``, a ``"dict"`` or a float
    ``"block"`` (see ``_KINDS``); a record dataclass by its sorted field
    names; anything else as what :func:`json_default` makes of it."""
    kind = next((kind for kind, types in _KINDS.items() if issubclass(t, types)), "converted")
    if kind == "converted" and dataclasses.is_dataclass(t) and not issubclass(t, (CVector, CMatrix)):
        return tuple(sorted(f.name for f in dataclasses.fields(t)))
    return kind


@functools.lru_cache(maxsize=1024)
def _heads(keys: tuple) -> list:
    """The text before each value of a dict with these sorted keys, the
    key json-escaped with every % doubled; a TypeError unless every key
    is a string."""
    return [json.encoder.encode_basestring_ascii(key).replace("%", "%%") + ": " for key in keys]


def _repeated(pieces: list, n: int, nl: str) -> list:
    """The pieces of a template of a list of n >= 1 items that share the
    template ``pieces``; the repeats are one piece, not copied again."""
    return ["[" + nl + "  ", ("," + nl + "  ").join(["".join(pieces)] * n), nl + "]"]


def _floats(a: np.ndarray, nl: str) -> tuple[list, np.ndarray]:
    """The template pieces of ``a[0]``, a float64 array or float, and the
    (len(a), slots) array of the slot values of each ``a[i]``: the list
    rule, axis by axis, each value's slot the float itself or json's word
    for inf or nan."""
    if a.ndim > 1:
        pieces, block = _floats(a.reshape((-1,) + a.shape[2:]), nl + "  ")
        return _repeated(pieces, a.shape[1], nl), block.reshape(len(a), -1)
    bad = ~np.isfinite(a)
    if bad.any():
        a = a.astype(object)
        a[bad] = list(map(_slot, a[bad].tolist()))
    return ["%s"], a[:, None]


def _layout(col: list, nl: str, pieces: list, values: list) -> bool:
    """Append the template and slot values of a column, the values at one
    place in each of ``len(col)`` records; False when two of them differ
    in layout, and what was appended is then to be dropped.

    ``pieces`` joins to the template: one value's text as
    ``json.dumps(indent=2, sort_keys=True, default=json_default)`` writes
    it on the line whose newline and indent are ``nl``, with a ``%s`` slot
    for each scalar and every ``%`` of a key doubled.  ``values`` gets the
    slot values: for one record the values themselves, for several one
    (len(col), slots) array per run of slots, one row per record.  A
    finite float fills its slot as itself (``str`` of a float is its
    ``repr``); every other scalar, and json's word for inf or nan, as its
    JSON text (:func:`_slot`), chosen per slot.

    Same layout is same kind (``_kind``), and for lists the same length,
    for dicts the same keys.  One list of at least ``_COLUMN_MIN`` items
    lays out its items as one column where they share a layout, and so
    repeats one template, or one column each where not; several lists,
    dicts and records of one dataclass lay out one column per position,
    key or field.  A column of one value always has a layout.
    """
    if len(col) == 1 and type(col[0]) in (float, int, str, bool, type(None), complex):  # one plain value
        z = col[0]
        pieces += _repeated(["%s"], 2, nl) if type(z) is complex else ["%s"]
        values += map(_slot, (z.real, z.imag) if type(z) is complex else col)
        return True
    types = set(map(type, col))
    kind, *others = set(map(_kind, types))  # no column is empty
    if others:
        return False
    blocks = kind == "block" and col[0].dtype == np.float64 and col[0].size and len({(a.dtype, a.shape) for a in col}) == 1
    if kind in ("pair", "scalar") or blocks:
        if kind == "scalar" and not all(issubclass(t, (float, np.floating)) for t in types):
            tokens = _BOOL_TOKENS[np.array(col, dtype=np.intp)] if types <= {bool, np.bool_} else list(map(_slot, col))
            text, block = ["%s"], np.array(tokens, dtype=object)[:, None]
        elif kind == "pair":
            text, block = _floats(cnum_array(col), nl)
        else:  # one float block is read in place, without a copy
            text, block = _floats(np.asarray(col[0], np.float64)[None] if len(col) == 1 else np.array(col, np.float64), nl)
        pieces += text
        values += block.ravel().tolist() if len(col) == 1 else [block]
        return True
    if kind in ("block", "converted"):
        return _layout(list(map(json_default, col)), nl, pieces, values)
    inner = nl + "  "
    if kind == "list":
        n, *others = set(map(len, col))
        if others:
            return False
        item_pieces, item_values = [], []
        if len(col) == 1 and n >= _COLUMN_MIN and _layout(list(col[0]), inner, item_pieces, item_values):
            pieces += _repeated(item_pieces, n, nl)
            values += itertools.chain.from_iterable(b.ravel().tolist() for b in item_values)
            return True
        keys, heads, brackets = range(n), [""] * n, "[]"
    else:
        if kind == "dict" and len(col) > 1 and any(d.keys() != col[0].keys() for d in col):
            return False
        keys = tuple(sorted(col[0])) if kind == "dict" else kind
        heads, brackets = _heads(keys), "{}"
    get, getter = (getattr, operator.attrgetter) if isinstance(kind, tuple) else (operator.getitem, operator.itemgetter)
    columns = [[get(col[0], key)] for key in keys] if len(col) == 1 else [list(map(getter(key), col)) for key in keys]
    start = len(values)
    for i, (head, column) in enumerate(zip(heads, columns)):
        pieces.append(("," if i else brackets[0]) + inner + head)
        if not _layout(column, inner, pieces, values):
            return False
    pieces.append(nl + brackets[1] if heads else brackets)
    if len(col) > 1 and len(values) - start > 1:  # one row per record
        values[start:] = [np.concatenate(values[start:], axis=1)]
    return True


def dumps_report(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one
    trailing newline.  The whole report is one template, laid out by
    :func:`_layout`, filled by one ``%``: a list whose items share a
    layout, a record list or a float block alike, repeats its first
    item's template, so no step of the writer is taken per item.  Dict
    keys must be strings: any other key is a TypeError, where
    ``json.dumps`` would write it as text (no report has one)."""
    pieces, values = [], []
    _layout([obj], "\n", pieces, values)
    text, values = "".join(pieces + ["\n"]), tuple(values)
    del pieces  # it holds the largest list's text; the fill needs only the template
    return text % values


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
