"""Batch command-line surface: one executable, subcommand per analysis.

Reports are written to ``--out`` (default standard output) as
deterministic JSON — same inputs and seed, byte-identical bytes.  When
a report goes to a file, a one-line human summary goes to standard
output instead.  Errors leave a machine-readable object on standard
error and map to exit statuses: 1 for usage/parse problems and
unwritable output paths, 2 for numerical failures, 3 for precondition
violations.

Input paths accept ``-`` for standard input, and the simulators emit
envelopes that the sequence-consuming commands accept directly, so
``simulate … | spectrum-scan -`` composes.
"""

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .corpus import generate_corpus
from .dynamics import delay_limit_probe, simulate_delay
from .eigen import (
    DEFAULT_PERIPHERAL_TOL,
    cayley_hamilton_residual,
    gelfand_radius_estimate,
)
from .errors import ParseError, SeqSpectrumError, exit_code_for
from .linalg import _row_norms, operator_norm
from .resolvent import (
    DEFAULT_QUADRATURE_NODES,
    cauchy_coefficient,
    pole_order_probe,
    resolvent_norm_scan,
)
from .sequences import (
    DEFAULT_GRID_SIZE,
    DEFAULT_HORIZON,
    MAX_HORIZON,
    MIN_HORIZON,
    extract_modes,
    ktz_check,
    spectrum_scan,
)
from .serialize import (
    _parse_int,
    cnum_array,
    dumps_report,
    json_default,
    load_json,
    parse_cnum_array,
    parse_matrix,
    parse_sequence,
    parse_system,
    resolvent_scan_csv,
    sequence_to_json,
)


#: Complex values a count flag may make one op hold or compute: points *
#: radii * d^2, n_max * d^2 or nodes * len(coeffs) * d.  The Python-level
#: steps behind them (grid points, powers, Horner steps) are at most
#: MAX_HORIZON.
_MAX_COUNT_VALUES = 2**24


def _check_count(flag: str, count: int, steps: int, values_each: int) -> None:
    if steps > MAX_HORIZON or steps * values_each > _MAX_COUNT_VALUES:
        raise ParseError(
            f"{flag} {count} makes {steps} steps of {steps * values_each} complex values; "
            f"at most {MAX_HORIZON} steps and {_MAX_COUNT_VALUES} values"
        )


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit status 2 for usage errors; this package
    uses 1, so usage failures are rethrown as parse errors.

    Any argument that starts like a negative number is a value, so that
    ``--theta -1,0`` works as well as ``--theta=-1,0``; argparse's own
    pattern only admits plain negative numbers such as ``-1``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ParseError(message)


def _parse_theta(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ParseError(f"theta must be 're' or 're,im', got {text!r}")


def _real(text: str, allow_inf: bool = False) -> float:
    """argparse type of the float flags: NaN is never a setting, and inf
    only where it means "no bound"."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the non-finite values
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise argparse.ArgumentTypeError(f"expected a {'' if allow_inf else 'finite '}number, got {text!r}")
    return value


def _parse_radii(text: str) -> list[float]:
    return [_real(p) for p in text.split(",") if p.strip()]


def _emit(text: str, out: str, summary: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(summary)


def _cmd_spectrum_scan(args) -> None:
    seq = parse_sequence(load_json(args.input))
    report = spectrum_scan(seq, args.grid_size, args.epsilon)
    summary = (
        f"detected {len(report.detected)} spectrum point(s) "
        f"[grid {report.grid_size}, threshold {report.threshold:.6g}]"
    )
    _emit(dumps_report(report), args.out, summary)


def _cmd_modes(args) -> None:
    seq = parse_sequence(load_json(args.input))
    thetas = [_parse_theta(t) for t in args.theta or []]
    decomp = extract_modes(seq, thetas, args.n_used)
    summary = (
        f"extracted {len(decomp.modes)} mode(s); residual tail "
        f"{decomp.residual.tail_sup:.6g}"
    )
    _emit(dumps_report(decomp), args.out, summary)


def _cmd_simulate(args) -> None:
    """``simulate`` (p = 1 only, no probe) and ``delay-simulate``."""
    system, horizon = parse_system(load_json(args.input))
    if args.command == "simulate" and system.p != 1:
        raise ParseError("simulate handles p = 1 systems; use delay-simulate for p > 1")
    seq, report = simulate_delay(system, horizon)
    envelope = {"sequence": sequence_to_json(seq), "trajectory_report": report}
    summary = f"p = {system.p}, horizon {horizon}, growth {report.growth_class}, sup norm {report.sup_norm:.6g}"
    if args.probe:
        probe = delay_limit_probe(system, seq, args.peripheral_tol, args.grid_size)
        envelope["delay_probe"] = probe
        pstep = "n/a" if probe.p_step is None else f"{probe.p_step.tail_sup:.6g}"
        summary += f"; probe tails one-step {probe.one_step.tail_sup:.6g}, p-step {pstep}"
    _emit(dumps_report(envelope), args.out, summary)


def _cmd_gelfand(args) -> None:
    a = parse_matrix(load_json(args.input))
    _check_count("--n-max", args.n_max, args.n_max, a.dim * a.dim)
    report = gelfand_radius_estimate(a, args.n_max)
    _emit(dumps_report(report), args.out, f"spectral radius estimate {report.estimate:.12g}")


def _cmd_ktz(args) -> None:
    a = parse_matrix(load_json(args.input))
    _check_count("--n-max", args.n_max, args.n_max, a.dim * a.dim)
    verdict = ktz_check(a, _parse_theta(args.theta), args.n_max, args.bound, args.limit_tol)
    if verdict.hypotheses_met:
        tail = "n/a" if verdict.operator_tail_sup is None else f"{verdict.operator_tail_sup:.6g}"
        summary = f"hypotheses met; operator tail {tail}; limit attained: {verdict.limit_attained}"
    else:
        summary = f"hypotheses not met: {verdict.reason}"
    _emit(dumps_report(verdict), args.out, summary)


def _cmd_resolvent_scan(args) -> None:
    a = parse_matrix(load_json(args.input))
    radii = args.radius
    if not radii:
        raise ParseError("--radius needs at least one radius")
    if args.points < 1:
        raise ParseError(f"--points must be at least 1, got {args.points}")
    _check_count("--points", args.points, args.points * len(radii), a.dim * a.dim)
    for r in radii:
        if r <= 0:
            raise ParseError(f"grid radius must be positive, got {r}")
    angles = 2.0 * np.pi * np.arange(args.points) / args.points
    # (r cos t, r sin t) pairs viewed as complex, so each part keeps its bits
    grid = np.asarray(radii)[:, None, None] * np.stack((np.cos(angles), np.sin(angles)), -1)
    samples = resolvent_norm_scan(a, grid.view(np.complex128).ravel())
    flagged = sum(1 for s in samples if s.singular_flag)
    summary = f"{len(samples)} grid point(s), {flagged} singular flag(s)"
    if args.format == "csv":
        _emit(resolvent_scan_csv(samples), args.out, summary)
    else:
        _emit(dumps_report({"samples": samples}), args.out, summary)


def _cmd_pole_probe(args) -> None:
    u = parse_matrix(load_json(args.input))
    report = pole_order_probe(u, _parse_theta(args.theta), args.radii)
    summary = (
        f"fitted order {report.fitted_order:.4f} at theta = "
        f"({report.center.real:.6g}, {report.center.imag:.6g})"
    )
    _emit(dumps_report(report), args.out, summary)


def _cmd_cayley(args) -> None:
    a = parse_matrix(load_json(args.input))
    residual = cayley_hamilton_residual(a)
    report = {"d": a.dim, "residual": residual, "matrix_norm": operator_norm(a)}
    _emit(dumps_report(report), args.out, f"characteristic-polynomial residual {residual:.6g}")


def _cmd_cauchy_recover(args) -> None:
    obj = load_json(args.input)
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError("series table must be an object with a 'coeffs' list")
    coeffs = parse_cnum_array(obj["coeffs"], "series coefficients", 2)
    _check_count("--nodes", args.nodes, args.nodes * len(coeffs), coeffs.shape[1])

    def oracle(z: complex) -> np.ndarray:
        acc = np.zeros_like(coeffs[0])
        with np.errstate(over="ignore", invalid="ignore"):  # cauchy_coefficient rejects non-finite values
            for c in reversed(coeffs):
                acc = acc * z + c
        return acc

    recovered = cauchy_coefficient(oracle, args.k, args.radius, args.nodes)
    report = {
        "k": args.k,
        "radius": args.radius,
        "nodes": args.nodes,
        "coefficient": recovered,
    }
    if args.k < len(coeffs):
        err = float(_row_norms(recovered.data[None] - coeffs[args.k])[0])
        report["table_coefficient"] = cnum_array(coeffs[args.k])
        report["abs_error"] = err
    _emit(
        dumps_report(report),
        args.out,
        f"coefficient {args.k} recovered, norm {recovered.norm():.6g}",
    )


def _cmd_corpus(args) -> None:
    _parse_int(args.horizon, "horizon", MIN_HORIZON, MAX_HORIZON, "corpus")
    _parse_int(args.seed, "seed", 0, np.inf, "corpus")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    members = generate_corpus(args.seed, args.horizon)
    manifest = {"seed": args.seed, "horizon": args.horizon, "members": []}
    for m in members:
        fname = f"seq-{m.member_id}.json"
        (out_dir / fname).write_text(dumps_report(sequence_to_json(m.seq)), encoding="utf-8")
        manifest["members"].append(
            {
                "id": m.member_id,
                "kind": m.kind,
                "d": m.seq.dim,
                "thetas": cnum_array(m.thetas),
                "file": fname,
            }
        )
    (out_dir / "manifest.json").write_text(dumps_report(manifest), encoding="utf-8")
    print(f"wrote {len(members)} corpus member(s) to {out_dir}")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: every flag's default is
    immutable or converted afresh by its ``type``, and ``parse_args``
    returns a new namespace, so no call sees another's values."""
    parser = _Parser(prog="seqspectrum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="input JSON path, or - for stdin")
        p.add_argument("-o", "--out", default="-", help="report path (default: stdout)")
        p.set_defaults(func=func)
        return p

    p = add("spectrum-scan", _cmd_spectrum_scan, "scan a sequence for unit-circle spectrum points")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--epsilon", type=_real, default=None, help="detection threshold (default: scale-based)")

    p = add("modes", _cmd_modes, "extract mode amplitudes at given unimodular points")
    p.add_argument("--theta", action="append", metavar="RE,IM", help="repeatable mode location")
    p.add_argument("--n-used", type=int, default=None, help="averaging window (default: full horizon)")

    add("simulate", _cmd_simulate, "run x_{n+1} = B x_n + y_n from a system file").set_defaults(probe=False)

    p = add("delay-simulate", _cmd_simulate, "run x_{n+p} = B x_n + y_n from a system file")
    p.add_argument("--probe", action="store_true", help="attach the delay limit probe report")
    p.add_argument("--peripheral-tol", type=_real, default=DEFAULT_PERIPHERAL_TOL)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)

    p = add("gelfand", _cmd_gelfand, "estimate the spectral radius from the norm sequence")
    p.add_argument("--n-max", type=int, default=512)

    p = add("ktz", _cmd_ktz, "check the power-bounded iterate difference tail")
    p.add_argument("--theta", required=True, metavar="RE,IM")
    p.add_argument("--n-max", type=int, default=512)
    p.add_argument("--bound", type=lambda text: _real(text, allow_inf=True), default=1e6)
    p.add_argument("--limit-tol", type=_real, default=1e-8)

    p = add("resolvent-scan", _cmd_resolvent_scan, "resolvent norms over circle grids")
    p.add_argument("--radius", type=_parse_radii, default="0.5,1.5", metavar="R1,R2,...", help="circle radii to sweep")
    p.add_argument("--points", type=int, default=256, help="points per circle")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("pole-probe", _cmd_pole_probe, "fit the resolvent blow-up order at a unitary eigenvalue")
    p.add_argument("--theta", required=True, metavar="RE,IM")
    p.add_argument("--radii", type=_parse_radii, default="1e-2,3e-3,1e-3,3e-4,1e-4", metavar="R1,R2,...")

    add("cayley", _cmd_cayley, "characteristic-polynomial residual of a matrix")

    p = add("cauchy-recover", _cmd_cauchy_recover, "recover a series coefficient by circle quadrature")
    p.add_argument("--k", type=int, required=True, help="coefficient index")
    p.add_argument("--radius", type=_real, default=1.0)
    p.add_argument("--nodes", type=int, default=DEFAULT_QUADRATURE_NODES)

    p = add("corpus", _cmd_corpus, "write the seeded sequence corpus to a directory", needs_input=False)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "grid_size", 0) > MAX_HORIZON:  # spectrum-scan and delay-simulate
            raise ParseError(f"--grid-size must be at most {MAX_HORIZON}")
        args.func(args)
        return 0
    except (SeqSpectrumError, OSError) as exc:
        if isinstance(exc, OSError):  # load_json raises ParseError for input, so this is an -o or --out-dir write
            exc = ParseError(f"cannot write: {exc}")
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for name in ("blow_up_index", "payload"):
            extra = getattr(exc, name, None)
            if extra is not None:
                payload[name] = extra
        sys.stderr.write(json.dumps(payload, sort_keys=True, default=json_default) + "\n")
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
