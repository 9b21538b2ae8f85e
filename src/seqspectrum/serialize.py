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
which wire dicts hold as it is and :func:`dumps_report` lists; one
``json.dumps`` pass whose hook, :func:`json_default`, converts one level
at a time.  The decoder takes JSON ints, floats and bools, no list empty
or ragged, every value finite, and keeps each float's bits.
"""

import csv
import dataclasses
import io
import json
import numbers
import re
import sys

import numpy as np

from .dynamics import DelaySystem, ForcingSpec, simulate_delay
from .errors import ParseError
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


def parse_cnum(obj, what: str = "complex number") -> complex:
    return complex(parse_cnum_array(obj, what, 0))


def vector_to_json(v) -> np.ndarray:
    return cnum_array(np.ravel(getattr(v, "data", v)))


def parse_vector(obj, what: str = "vector") -> CVector:
    return CVector(parse_cnum_array(obj, what, 1))


def matrix_to_json(a: CMatrix) -> dict:
    return {"d": a.dim, "entries": cnum_array(a.data.reshape(-1))}


def parse_matrix(obj, what: str = "matrix") -> CMatrix:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object with 'd' and 'entries'")
    d = obj.get("d")
    if not isinstance(d, int) or not 1 <= d <= MAX_DIM:
        raise ParseError(f"{what}: 'd' must be an integer in [1, {MAX_DIM}], got {d!r}")
    entries = parse_cnum_array(obj.get("entries"), f"{what} entries", 1)
    if len(entries) != d * d:
        raise ParseError(f"{what}: 'entries' must list d*d = {d * d} pairs")
    return CMatrix(entries.reshape(d, d))


def parse_forcing(obj, what: str = "forcing") -> ForcingSpec:
    if obj is None:
        return ForcingSpec.zero()
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{what} must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "zero":
            return ForcingSpec.zero()
        if kind == "custom_table":
            return ForcingSpec.custom(parse_cnum_array(obj.get("values"), f"{what} values", 2))
        if kind in ("geometric", "power", "log_decay"):
            param = obj.get("param")
            if kind != "log_decay" and not isinstance(param, numbers.Real):
                raise ParseError(f"{what}: kind {kind!r} needs a numeric 'param'")
            direction = obj.get("direction")
            if direction is not None:
                direction = parse_cnum_array(direction, f"{what} direction", 1)
            seed = obj.get("seed", 0)
            if not isinstance(seed, int):
                raise ParseError(f"{what}: 'seed' must be an integer")
            if kind == "log_decay":
                return ForcingSpec.log_decay(direction, seed)
            return ForcingSpec(kind, float(param), direction, seed=seed)
    except ParseError:
        raise
    except Exception as exc:  # PreconditionError from ForcingSpec validation
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


def _parse_horizon(horizon, what: str) -> int:
    if not isinstance(horizon, int) or not MIN_HORIZON <= horizon <= MAX_HORIZON:
        raise ParseError(f"{what}: 'horizon' must be an integer in [{MIN_HORIZON}, {MAX_HORIZON}]")
    return horizon


def parse_system(obj, what: str = "system") -> tuple[DelaySystem, int]:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object")
    for key in ("B", "initial", "horizon"):
        if key not in obj:
            raise ParseError(f"{what} is missing {key!r}")
    b = parse_matrix(obj["B"], f"{what}.B")
    p = obj.get("p", 1)
    if not isinstance(p, int) or p < 1:
        raise ParseError(f"{what}: 'p' must be a positive integer")
    initial = parse_cnum_array(obj["initial"], f"{what} initial vectors", 2)
    forcing = parse_forcing(obj.get("forcing"), f"{what}.forcing")
    horizon = _parse_horizon(obj["horizon"], what)
    try:
        system = DelaySystem(b, p, initial, forcing)
    except Exception as exc:
        raise ParseError(f"{what}: {exc}") from exc
    return system, horizon


def system_to_json(system: DelaySystem, horizon: int) -> dict:
    return {
        "B": matrix_to_json(system.b),
        "p": system.p,
        "initial": cnum_array(system.initial),
        "forcing": forcing_to_json(system.forcing),
        "horizon": horizon,
    }


def sequence_to_json(x: BoundedSeq, prefer_descriptor: bool = True) -> dict:
    """Emit a sequence; generator-born sequences keep their compact
    descriptor form when it can regenerate them exactly."""
    desc = x.descriptor
    if prefer_descriptor and desc is not None and desc.get("kind") == "modes_plus_decay":
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


def parse_sequence(obj, what: str = "sequence") -> BoundedSeq:
    """Parse any sequence form; simulator report envelopes (objects with
    a 'sequence' member) are accepted directly, so simulation output can
    be piped straight into the scan and mode commands."""
    if isinstance(obj, dict) and "sequence" in obj and "kind" not in obj:
        return parse_sequence(obj["sequence"], what)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{what} must be an object with a 'kind'")
    kind = obj["kind"]
    if kind in ("materialized", "custom_table"):
        d = obj.get("d")
        if not isinstance(d, int) or not 1 <= d <= MAX_DIM:
            raise ParseError(f"{what}: 'd' must be an integer in [1, {MAX_DIM}]")
        rows = parse_cnum_array(obj.get("values"), f"{what} values", 2)
        if rows.shape[0] < MIN_HORIZON or rows.shape[1] != d:
            raise ParseError(f"{what}: 'values' must list at least {MIN_HORIZON} vectors of dimension d = {d}")
        return BoundedSeq(rows, {"kind": kind})
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
        horizon = _parse_horizon(obj.get("horizon"), what)
        seed = obj.get("seed", 0)
        if not isinstance(seed, int):
            raise ParseError(f"{what}: 'seed' must be an integer")
        dim = obj.get("d") if not modes else len(modes[0][1])
        if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
            raise ParseError(f"{what}: 'd' and the mode vectors' length must be in [1, {MAX_DIM}]")
        try:
            decay_obj = obj.get("decay")
            decay = None
            if decay_obj is not None:
                if not isinstance(decay_obj, dict) or "type" not in decay_obj:
                    raise ParseError(f"{what}: 'decay' must be an object with a 'type'")
                if decay_obj["type"] != "none":
                    param = decay_obj.get("param")
                    if decay_obj["type"] != "log" and not isinstance(param, numbers.Real):
                        raise ParseError(f"{what}: decay type {decay_obj['type']!r} needs a numeric 'param'")
                    # float() inside the try: an int past float range is a ParseError
                    decay = (decay_obj["type"], None if param is None else float(param))
            return modes_plus_decay(modes, horizon, decay=decay, seed=seed, dim=dim)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"{what}: {exc}") from exc
    if kind == "forced_system_output":
        system, horizon = parse_system(obj, what)
        try:
            seq, _ = simulate_delay(system, horizon)
        except Exception as exc:
            raise ParseError(f"{what}: simulation failed: {exc}") from exc
        return seq
    raise ParseError(f"{what}: unknown kind {kind!r}")


def json_default(obj):
    """One level of a package object as JSON data: json's ``default`` hook,
    which json calls again on whatever the result still holds."""
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


_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def dumps_report(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one
    trailing newline.  Each float64 array is a placeholder string here,
    then spliced back as json's C-encoded compact text indented by
    replacement: every float sits ``ndim`` lists deep, so the separator
    "]" * c + ", " + "[" * c between two floats closes c lists."""
    blocks = []

    def default(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim and o.size:
            blocks.append(o)
            return f"\0{len(blocks) - 1}"
        return json_default(o)

    def splice(m: re.Match) -> str:
        a = blocks[int(m.group(1))]
        k = a.ndim
        line = m.string[m.string.rfind("\n", 0, m.start()) + 1 : m.start()]
        nl = ["\n" + " " * (len(line) - len(line.lstrip(" ")) + 2 * j) for j in range(k + 1)]
        close = ["".join(nl[j] + "]" for j in reversed(range(k - c, k))) for c in range(k + 1)]
        open_ = ["".join("[" + nl[j + 1] for j in range(k - c, k)) for c in range(k + 1)]
        text = json.dumps(a.tolist())
        for c in range(k - 1, -1, -1):
            text = text.replace("]" * c + ", " + "[" * c, close[c] + "," + nl[k - c] + open_[c])
        return open_[k] + text[k : len(text) - k] + close[k]

    text = json.dumps(obj, sort_keys=True, indent=2, default=default)
    if sorted(int(i) for i in _PLACEHOLDER.findall(text)) != list(range(len(blocks))):
        raise ValueError("a report string collides with a float block placeholder")
    return _PLACEHOLDER.sub(splice, text) + "\n"


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
