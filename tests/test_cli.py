import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from seqspectrum import cli, dynamics, eigen, linalg
from seqspectrum.cli import main
from seqspectrum.dynamics import DelaySystem, ForcingSpec
from seqspectrum.errors import ParseError
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.sequences import MAX_HORIZON, MIN_HORIZON, BoundedSeq, modes_plus_decay
from seqspectrum.serialize import dumps_report, matrix_to_json, sequence_to_json, system_to_json


def write_json(path, obj):
    path.write_text(dumps_report(obj), encoding="utf-8")
    return str(path)


def seq_file(tmp_path, name="seq.json", horizon=1024):
    x = modes_plus_decay([(1j, (1.0,))], horizon, decay=("geometric", 0.5), seed=1)
    return write_json(tmp_path / name, sequence_to_json(x))


def alternating_system_json(horizon=256):
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    return system_to_json(system, horizon)


def _error_line(stderr: str) -> dict:
    """The error object a failing command writes: exactly one stderr line,
    strict JSON (NaN and Infinity rejected), with an 'error' key."""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    err = helpers.strict_json(lines[0])
    assert "error" in err
    return err


def test_one_parser_serves_every_call_like_a_fresh_one(tmp_path, capsys):
    # an appended --theta list or a converted --radius default that leaked
    # into the next call would change its report
    seq = seq_file(tmp_path)
    mat = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([0.5, 2.0]))))
    runs = [
        ["modes", seq, "--theta", "0,1", "--theta", "-1,0"],
        ["modes", seq],
        ["resolvent-scan", mat, "--radius", "2", "--points", "4"],
        ["resolvent-scan", mat, "--points", "4"],
        ["modes", seq, "--theta", "0,1"],
    ]

    def outputs(fresh):
        got = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            assert main(argv) == 0
            got.append(capsys.readouterr().out)
        return got

    shared = outputs(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert outputs(fresh=True) == shared
    assert [len(json.loads(shared[i])["modes"]) for i in (0, 1, 4)] == [2, 0, 1]
    assert [len(json.loads(shared[i])["samples"]) for i in (2, 3)] == [4, 8]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_spectrum_scan_stdout(tmp_path, capsys):
    rc = main(["spectrum-scan", seq_file(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["detected"]) == 1
    theta = report["detected"][0]["theta"]
    assert abs(theta[0]) <= 1e-4 and abs(theta[1] - 1.0) <= 1e-4


def _scan_subprocess_detection(tmp_path, values):
    """The one detection of ``seqspectrum spectrum-scan`` run in a fresh
    interpreter, which must exit 0 with an empty stderr and strict JSON."""
    path = write_json(tmp_path / "seq.json", sequence_to_json(BoundedSeq(values)))
    proc = subprocess.run(
        [sys.executable, "-m", "seqspectrum.cli", "spectrum-scan", path], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    (det,) = helpers.strict_json(proc.stdout)["detected"]
    return det


def test_spectrum_scan_of_huge_values_writes_strict_json(tmp_path):
    # entries near 1e200: the square of every entry overflows
    x = modes_plus_decay([(np.exp(0.7j), (1.0, -0.5j))], 256)
    det = _scan_subprocess_detection(tmp_path, x.values * 1e200)
    assert abs(complex(*det["theta"]) - np.exp(0.7j)) <= 1e-8
    assert det["peak_mean_norm"] == pytest.approx(np.sqrt(1.25) * 1e200, rel=1e-12)


def test_spectrum_scan_near_the_float_limit_writes_strict_json(tmp_path):
    # entries of 1e308: the sum of the 16 entries overflows
    det = _scan_subprocess_detection(tmp_path, np.full((16, 1), 1e308))
    assert abs(complex(*det["theta"]) - 1.0) <= 1e-8
    assert det["peak_mean_norm"] == pytest.approx(1e308, rel=1e-13)


def test_spectrum_scan_out_file_and_summary(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["spectrum-scan", seq_file(tmp_path), "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "detected" in summary
    report = json.loads(out.read_text())
    assert report["grid_size"] == 4096


def test_spectrum_scan_reads_stdin(tmp_path, capsys, monkeypatch):
    payload = (tmp_path / "seq.json").read_text() if False else None
    x = modes_plus_decay([(1.0, (2.0,))], 512, seed=0)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_report(sequence_to_json(x))))
    rc = main(["spectrum-scan", "-"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["detected"]) == 1


def test_modes_command(tmp_path, capsys):
    rc = main(["modes", seq_file(tmp_path), "--theta", "0,1"])
    assert rc == 0
    decomp = json.loads(capsys.readouterr().out)
    v = decomp["modes"][0]["v"]
    assert abs(v[0][0] - 1.0) <= 1e-3 and abs(v[0][1]) <= 1e-3


def test_simulate_envelope_feeds_scan(tmp_path, capsys):
    system = {
        "B": matrix_to_json(CMatrix([[-1.0]])),
        "initial": [[[1.0, 0.0]]],
        "horizon": 512,
    }
    sys_path = write_json(tmp_path / "system.json", system)
    env_path = tmp_path / "trajectory.json"
    rc = main(["simulate", sys_path, "--out", str(env_path)])
    assert rc == 0
    capsys.readouterr()
    envelope = json.loads(env_path.read_text())
    assert envelope["trajectory_report"]["bounded_verdict"] is True
    assert envelope["sequence"]["kind"] == "materialized"
    # the envelope is itself valid scan input
    rc = main(["spectrum-scan", str(env_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["detected"]) == 1
    assert abs(report["detected"][0]["theta"][0] + 1.0) <= 1e-6


def test_simulate_rejects_delay_systems(tmp_path, capsys):
    sys_path = write_json(tmp_path / "system.json", alternating_system_json())
    rc = main(["simulate", sys_path])
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert "delay-simulate" in err["message"]


def test_delay_simulate_with_probe(tmp_path, capsys):
    sys_path = write_json(tmp_path / "system.json", alternating_system_json())
    rc = main(["delay-simulate", sys_path, "--probe"])
    assert rc == 0
    envelope = json.loads(capsys.readouterr().out)
    probe = envelope["delay_probe"]
    assert probe["one_step"]["tail_sup"] == 2.0
    assert probe["p_step"]["tail_sup"] == 0.0
    assert probe["scan_contained"] is True


def test_delay_simulate_with_probe_simulates_once(tmp_path, capsys, monkeypatch):
    calls = []
    simulate = dynamics.simulate_delay

    def counted(system, horizon):
        calls.append(horizon)
        return simulate(system, horizon)

    monkeypatch.setattr(dynamics, "simulate_delay", counted)
    monkeypatch.setattr(cli, "simulate_delay", counted)
    sys_path = write_json(tmp_path / "system.json", alternating_system_json())
    assert main(["delay-simulate", sys_path, "--probe", "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [256]


def test_simulate_and_delay_simulate_write_the_same_envelope(tmp_path, capsys):
    system = {
        "B": matrix_to_json(CMatrix([[-1.0, 0.25j], [0.0, 0.5]])),
        "initial": [[[1.0, 0.0], [0.0, 1.0]]],
        "forcing": {"kind": "geometric", "param": 0.5},
        "horizon": 128,
    }
    sys_path = write_json(tmp_path / "system.json", system)
    envelopes = []
    for command in ("simulate", "delay-simulate"):
        out = tmp_path / f"{command}.json"
        assert main([command, sys_path, "-o", str(out)]) == 0
        envelopes.append(out.read_bytes())
    assert envelopes[0] == envelopes[1]
    summaries = capsys.readouterr().out.splitlines()
    assert summaries[0] == summaries[1] and summaries[0].startswith("p = 1, horizon 128")
    _assert_parse_error(capsys, main(["simulate", sys_path, "--probe"]))


def test_gelfand_command(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([2.0, 1.0]))))
    rc = main(["gelfand", path, "--n-max", "64"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["estimate"] - 2.0) <= 1e-9


def test_ktz_command(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, 0.5]))))
    rc = main(["ktz", path, "--theta", "1", "--n-max", "64"])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["hypotheses_met"] is True
    assert verdict["limit_attained"] is True


def test_resolvent_scan_csv(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.zeros((2, 2)))))
    rc = main(["resolvent-scan", path, "--radius", "2", "--points", "8", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "re(lambda),im(lambda),norm,singular_flag"
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[2]) - 0.5) <= 1e-12
        assert fields[3] == "0"


def test_resolvent_scan_grid_is_the_per_point_grid_bit_for_bit(tmp_path, capsys, monkeypatch):
    # the grid is r cos t and r sin t over the whole angle array at once,
    # each part with the bits of one scalar call per point
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.eye(1))))
    grids = []
    monkeypatch.setattr(cli, "resolvent_norm_scan", lambda a, grid: grids.append(grid) or [])
    radii = (0.5, 1.5, 1e-3, 1e3)
    counts = list(range(1, 130)) + [255, 256, 257, 1000, 1023, 1024, 4095, 4096]
    for points in counts:
        assert main(["resolvent-scan", path, "--radius", ",".join(map(repr, radii)), "--points", str(points)]) == 0
    capsys.readouterr()
    for points, grid in zip(counts, grids, strict=True):
        angles = 2.0 * np.pi * np.arange(points) / points
        want = [complex(r * np.cos(t), r * np.sin(t)) for r in radii for t in angles]
        assert np.asarray(grid, dtype=np.complex128).tobytes() == np.array(want).tobytes(), points


def test_pole_probe_command(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, -1.0]))))
    rc = main(["pole-probe", path, "--theta", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.95 <= report["fitted_order"] <= 1.05


def test_cayley_command(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[1.0, 2.0], [3.0, 4.0]])))
    rc = main(["cayley", path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 2
    assert report["residual"] <= 1e-10


def test_cayley_command_at_tiny_magnitudes(tmp_path, capsys):
    # the Frobenius norm of this matrix underflows to 0
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1e-200, 5e-201]))))
    assert main(["cayley", path]) == 0
    assert json.loads(capsys.readouterr().out)["matrix_norm"] == pytest.approx(1e-200, rel=1e-14, abs=0.0)


def test_cayley_command_near_the_float_limit(tmp_path, capsys):
    # numpy's product c * (1 + 0j) overflows for this finite coefficient c = -a
    a = CMatrix([[1e308 + 1e308j]])
    assert eigen.cayley_hamilton_residual(a) == 0.0
    assert main(["cayley", write_json(tmp_path / "m.json", matrix_to_json(a))]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["residual"] == 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["cayley", "m.json", "-o", "."],  # a directory
        ["cayley", "m.json", "-o", "missing/dir/out.json"],
        ["corpus", "--out-dir", "m.json"],  # a file
    ],
)
def test_an_unwritable_output_path_is_one_error_line(tmp_path, capsys, monkeypatch, args):
    write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[1.0, 2.0], [3.0, 4.0]])))
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = _error_line(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith("cannot write: ") and repr(args[-1]) in error["message"]


def test_cauchy_recover_command(tmp_path, capsys):
    payload = {"coeffs": [[[1.0, 0.0]], [[0.0, 2.0]], [[3.0, 0.0]]]}
    path = write_json(tmp_path / "series.json", payload)
    rc = main(["cauchy-recover", path, "--k", "1", "--nodes", "32"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abs_error"] <= 1e-12
    assert abs(report["coefficient"][0][1] - 2.0) <= 1e-12


SERIES = {"coeffs": [[[1.0, 0.0]], [[0.5, 0.0]], [[0.25, 0.0]], [[0.125, 0.0]]]}


def test_cauchy_recover_huge_k_aliases_like_small_k(tmp_path, capsys):
    # five nodes recover the sum of the coefficients whose index is k mod 5,
    # so every k = 0 mod 5 recovers c_0 = 1, however large k is
    path = write_json(tmp_path / "series.json", SERIES)
    coefficients = []
    for k in (5, 10, 2**62 + 1, 10**20):
        assert main(["cauchy-recover", path, "--k", str(k), "--nodes", "5"]) == 0
        coefficients.append(json.loads(capsys.readouterr().out)["coefficient"])
    assert coefficients == [coefficients[0]] * 4
    assert coefficients[0][0][0] == pytest.approx(1.0, abs=1e-15)


def test_cauchy_recover_scale_overflow_exits_precondition(tmp_path, capsys):
    path = write_json(tmp_path / "series.json", SERIES)
    assert main(["cauchy-recover", path, "--k", "2000", "--radius", "0.5"]) == 3
    assert _error_line(capsys.readouterr().err)["error"] == "PreconditionError"


def test_cauchy_recover_overflowing_samples_write_one_error_line(tmp_path):
    path = write_json(tmp_path / "series.json", SERIES)
    proc = subprocess.run(
        [sys.executable, "-m", "seqspectrum.cli", "cauchy-recover", path, "--k", "10", "--radius", "1e300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert _error_line(proc.stderr)["error"] == "PreconditionError"


def test_every_readme_cli_line_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```\n(seqspectrum .*?)```", readme, flags=re.DOTALL)
    write_json(tmp_path / "matrix.json", matrix_to_json(CMatrix(np.diag([1.0, 1j]))))
    seq_file(tmp_path)
    write_json(tmp_path / "system.json", {"B": matrix_to_json(CMatrix([[-1.0]])), "initial": [[[1.0, 0.0]]], "horizon": 256})
    write_json(tmp_path / "series.json", SERIES)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        argv = shlex.split(line.partition("#")[0])
        assert argv[0] == "seqspectrum"
        assert main(argv[1:]) == 0, line
        capsys.readouterr()


def test_corpus_command_deterministic(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        rc = main(["corpus", "--out-dir", str(d), "--seed", "3", "--horizon", "256"])
        assert rc == 0
    capsys.readouterr()
    names = sorted(p.name for p in d1.iterdir())
    assert "manifest.json" in names
    assert len(names) == 31  # 30 members + manifest
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_missing_input_exits_parse_error(tmp_path, capsys):
    rc = main(["spectrum-scan", str(tmp_path / "nope.json")])
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ParseError"


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"d": 1}',
        b"[" * 200000 + b"]" * 200000,
        b'{"d": 1, "entries": [[1' + b"0" * 400 + b", 0]]}",
        b'{"d": 1, "entries": [[1' + b"0" * 4400 + b", 0]]}",
    ],
    ids=["not-utf8", "deep-nesting", "entry-past-float-range", "int-past-digit-limit"],
)
def test_undecodable_input_exits_parse_error(tmp_path, capsys, monkeypatch, content, source):
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
        path = "-"
    else:
        path = tmp_path / "bad.json"
        path.write_bytes(content)
    rc = main(["cayley", str(path)])
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def _assert_parse_error(capsys, rc):
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_cauchy_recover_rejects_non_list_coeffs(tmp_path, capsys):
    path = write_json(tmp_path / "series.json", {"coeffs": 5})
    _assert_parse_error(capsys, main(["cauchy-recover", path, "--k", "0"]))


def test_decay_param_past_float_range_exits_parse_error(tmp_path, capsys):
    x = modes_plus_decay([(1j, (1.0,))], 64, decay=("power", 1.5), seed=1)
    desc = sequence_to_json(x)
    desc["decay"]["param"] = 10**400
    path = write_json(tmp_path / "seq.json", desc)
    _assert_parse_error(capsys, main(["spectrum-scan", path]))


def test_negative_forcing_seed_exits_parse_error(tmp_path, capsys):
    system = {
        "B": matrix_to_json(CMatrix([[0.5]])),
        "initial": [[[1.0, 0.0]]],
        "forcing": {"kind": "geometric", "param": 0.5, "seed": -1},
        "horizon": 64,
    }
    path = write_json(tmp_path / "system.json", system)
    _assert_parse_error(capsys, main(["simulate", path]))


def test_precondition_exit_code(tmp_path, capsys):
    path = seq_file(tmp_path)
    rc = main(["modes", path, "--theta", "0,1", "--theta", "0,1"])
    assert rc == 3  # coincident thetas breach the separation precondition
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "PreconditionError"


def test_unbounded_simulation_exit_code(tmp_path, capsys):
    system = {
        "B": matrix_to_json(CMatrix([[2.0]])),
        "initial": [[[1.0, 0.0]]],
        "horizon": 2048,
    }
    path = write_json(tmp_path / "system.json", system)
    rc = main(["simulate", path])
    assert rc == 2
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "UnboundedTrajectoryError"
    assert err["blow_up_index"] > 0


def test_ktz_infinite_bound_writes_one_error_line(tmp_path):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[2.0]])))
    proc = subprocess.run(
        [sys.executable, "-m", "seqspectrum.cli", "ktz", path, "--theta", "1", "--bound", "inf", "--n-max", "2048"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    err = _error_line(proc.stderr)
    assert err["error"] == "PreconditionError"
    assert err["message"].endswith("at n = 1024")  # T^n (T - I) = 2^n first leaves the float range there


def _descriptor(**fields):
    return {"kind": "modes_plus_decay", "modes": [{"theta": [0, 1], "v": [[1, 0]]}], "horizon": 64, **fields}


@pytest.mark.parametrize(
    "command, obj",
    [
        ("spectrum-scan", _descriptor(decay={"type": "power", "param": math.inf})),
        ("spectrum-scan", _descriptor(decay={"type": "log", "param": math.nan})),
        (
            "simulate",
            {"B": {"d": 1, "entries": [[0.5, 0]]}, "initial": [[[1, 0]]], "horizon": 64, "forcing": {"kind": "power", "param": math.inf}},
        ),
        (
            "simulate",
            {"B": {"d": 1, "entries": [[0.5, 0]]}, "initial": [[[1, 0]]], "horizon": 64, "forcing": {"kind": "log_decay", "param": math.inf}},
        ),
        (
            "simulate",
            {"B": {"d": 1, "entries": [[0.5, 0]]}, "initial": [[[1, 0]]], "horizon": 64, "forcing": {"kind": "zero", "param": "abc"}},
        ),
        ("spectrum-scan", _descriptor(decay={"type": "none", "param": math.inf})),
    ],
)
def test_non_finite_decay_parameters_exit_parse_error(tmp_path, capsys, command, obj):
    path = write_json(tmp_path / "in.json", obj)
    _assert_parse_error(capsys, main([command, path]))


@pytest.mark.parametrize(
    "command, obj", [("gelfand", {"d": True, "entries": [[1, 0]]}), ("spectrum-scan", _descriptor(modes=[], d=True))]
)
def test_a_boolean_dimension_exits_parse_error(tmp_path, capsys, command, obj):
    _assert_parse_error(capsys, main([command, write_json(tmp_path / "in.json", obj)]))


@pytest.mark.parametrize("d", [1000, True, -5, "x", 3])
def test_a_descriptor_d_other_than_its_mode_dimension_exits_parse_error(tmp_path, capsys, d):
    # the modes are 1-vectors; a d that is no integer in [1, 64], or not 1, is the fault
    _assert_parse_error(capsys, main(["spectrum-scan", write_json(tmp_path / "in.json", _descriptor(d=d))]))


@pytest.mark.parametrize("kind", ["custom_table", "forced_system_output"])
def test_an_undocumented_sequence_kind_exits_parse_error(tmp_path, capsys, kind):
    # all that either kind once read is there; only the kind is refused
    obj = {**alternating_system_json(), "kind": kind, "d": 1, "values": [[[1, 0]]] * 16}
    rc = main(["spectrum-scan", write_json(tmp_path / "in.json", obj)])
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ParseError" and err["message"] == f"sequence: unknown kind '{kind}'"


OVERSIZED_HORIZONS = [10**400, 2**40, MAX_HORIZON + 1]


@pytest.mark.parametrize(
    "command, obj",
    [("simulate", {**alternating_system_json(), "p": 1, "initial": [[[1, 0]]], "horizon": h}) for h in OVERSIZED_HORIZONS]
    + [("spectrum-scan", _descriptor(horizon=h)) for h in OVERSIZED_HORIZONS]
    + [("spectrum-scan", _descriptor(modes=[], d=1000))],
)
def test_oversized_input_exits_parse_error(tmp_path, capsys, command, obj):
    rc = main([command, write_json(tmp_path / "in.json", obj)])
    assert rc == 1
    assert _error_line(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("command", [["spectrum-scan"], ["delay-simulate", "--probe"]])
@pytest.mark.parametrize("grid_size", [MAX_HORIZON + 1, 2**40])
def test_oversized_grid_size_exits_parse_error(tmp_path, capsys, command, grid_size):
    path = write_json(tmp_path / "in.json", alternating_system_json() if command[0] == "delay-simulate" else _descriptor())
    rc = main(command + [path, "--grid-size", str(grid_size)])
    assert rc == 1
    assert _error_line(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("horizon", OVERSIZED_HORIZONS)
def test_corpus_oversized_horizon_exits_parse_error(tmp_path, capsys, horizon):
    rc = main(["corpus", "--out-dir", str(tmp_path / "corpus"), "--horizon", str(horizon)])
    assert rc == 1
    assert _error_line(capsys.readouterr().err)["error"] == "ParseError"
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("horizon", [5, MIN_HORIZON - 1, 0, -16])
def test_corpus_short_horizon_exits_parse_error(tmp_path, capsys, horizon):
    rc = main(["corpus", "--out-dir", str(tmp_path / "corpus"), "--horizon", str(horizon)])
    assert rc == 1
    assert _error_line(capsys.readouterr().err)["error"] == "ParseError"
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_corpus_negative_seed_exits_parse_error(tmp_path, capsys, seed):
    rc = main(["corpus", "--out-dir", str(tmp_path / "corpus"), "--seed", str(seed)])
    _assert_parse_error(capsys, rc)
    assert not (tmp_path / "corpus").exists()


def test_bad_theta_flag(tmp_path, capsys):
    path = seq_file(tmp_path)
    _assert_parse_error(capsys, main(["modes", path, "--theta", "zero"]))


@pytest.mark.parametrize("theta, code", [("-1,0", 0), ("-0.6,-0.8", 0), ("-0.5,0.2", 3)])
def test_negative_theta_as_separate_argument(tmp_path, capsys, theta, code):
    # -0.5,0.2 parses but is off the unit circle: a precondition failure, not a usage error
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, 0.5]))))
    rc = main(["ktz", path, "--theta", theta, "--n-max", "64"])
    separate = capsys.readouterr()
    assert rc == code
    if code:
        assert _error_line(separate.err)["error"] == "PreconditionError"
    assert main(["ktz", path, f"--theta={theta}", "--n-max", "64"]) == code
    assert capsys.readouterr() == separate


def test_norm_kernel_failure_reports_payload(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 3)
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, 1.0 - 1e-7, 0.5]))))
    rc = main(["cayley", path])
    assert rc == 2
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert sorted(err["payload"]) == ["index", "lower", "upper"]
    assert err["payload"]["lower"] <= err["payload"]["upper"]


def test_root_finder_failure_reports_complex_payload(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigen, "_MAX_SWEEPS", 1)  # one Aberth sweep
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[1.0, 2.0], [3.0, 4.0]])))
    rc = main(["ktz", path, "--theta", "1", "--n-max", "16"])
    assert rc == 2
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert len(err["payload"]["roots"]) == 2
    assert all(len(z) == 2 for z in err["payload"]["roots"])


def test_root_finder_failure_near_the_float_limit_writes_strict_json(tmp_path, capsys, monkeypatch):
    # the last iterate, scaled back, leaves the float range: the payload drops it
    monkeypatch.setattr(eigen, "_MAX_SWEEPS", 1)
    path = write_json(tmp_path / "m.json", {"d": 2, "entries": [[1.5e308, 0], [1.5e308, 0], [1.5e308, 0], [-1.5e308, 0]]})
    assert main(["ktz", path, "--theta", "1", "--n-max", "16"]) == 2
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert err["payload"] == {"sweep": 1}


def _ginibre_radius_2(d):
    rng = np.random.default_rng(64)
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return g * (2.0 / np.max(np.abs(np.linalg.eigvals(g))))


def test_root_finder_overflow_writes_one_strict_error_line(tmp_path):
    # radius 2 at d = 64, once past the float range of the root iteration,
    # now succeeds with backward-stable eigenvalues; a forced sweep cap
    # still ends in one strict error line
    g = _ginibre_radius_2(64)
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(g)))
    argv = ["ktz", path, "--theta", "1", "--n-max", "16"]
    proc = subprocess.run([sys.executable, "-m", "seqspectrum.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    helpers.check_eigenvalues(g, eigen.spectrum_info(CMatrix(g)).eigenvalues)
    capped = "import sys; from seqspectrum import cli, eigen; eigen._MAX_SWEEPS = 1; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", capped, *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    err = _error_line(proc.stderr)
    assert err["error"] == "ConvergenceError"
    assert sorted(err["payload"]) == ["roots", "sweep"]
    assert len(err["payload"]["roots"]) == 64


@pytest.mark.parametrize("points", [2**40, 0, -1])
def test_resolvent_scan_rejects_unbounded_points(tmp_path, capsys, points):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.eye(2))))
    _assert_parse_error(capsys, main(["resolvent-scan", path, "--points", str(points)]))


@pytest.mark.parametrize("radius", [",", ""])
def test_resolvent_scan_rejects_an_empty_radius_list(tmp_path, capsys, radius):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.eye(2))))
    rc = main(["resolvent-scan", path, "--radius", radius])
    assert rc == 1
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "at least one radius" in err["message"]


def test_resolvent_scan_rejects_a_negative_radius(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.eye(2))))
    rc = main(["resolvent-scan", path, "--radius", "-1"])
    assert rc == 1
    assert _error_line(capsys.readouterr().err)["message"] == "grid radius must be positive, got -1.0"


def test_cauchy_recover_rejects_a_list_input(tmp_path, capsys):
    path = write_json(tmp_path / "series.json", [[[1.0, 0.0]]])
    rc = main(["cauchy-recover", path, "--k", "0"])
    assert rc == 1
    assert "must be an object with a 'coeffs' list" in _error_line(capsys.readouterr().err)["message"]


def test_delay_simulate_horizon_below_twice_the_delay_exits_precondition(tmp_path, capsys):
    system = DelaySystem(CMatrix([[0.5]]), 64, [CVector([1.0])] * 64, ForcingSpec("zero"))
    path = write_json(tmp_path / "system.json", system_to_json(system, 16))
    assert main(["delay-simulate", path]) == 3
    err = _error_line(capsys.readouterr().err)
    assert err["error"] == "PreconditionError"
    assert err["message"] == "horizon must be >= max(16, 2p) = 128"


def test_cauchy_recover_rejects_unbounded_nodes(tmp_path, capsys):
    path = write_json(tmp_path / "series.json", {"coeffs": [[[1.0, 0.0], [0.5, -0.5]]]})
    _assert_parse_error(capsys, main(["cauchy-recover", path, "--k", "0", "--nodes", str(2**40)]))


@pytest.mark.parametrize("command", [["gelfand"], ["ktz", "--theta", "1"]])
def test_power_commands_reject_unbounded_n_max(tmp_path, capsys, command):
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.eye(2))))
    _assert_parse_error(capsys, main([command[0], path, *command[1:], "--n-max", str(2**40)]))


def test_count_bound_admits_exactly_the_bound():
    cli._check_count("--points", 2**12, 2**12, 2**12)
    with pytest.raises(ParseError, match="16777216 values"):
        cli._check_count("--points", 2**12 + 1, 2**12 + 1, 2**12)
    cli._check_count("--n-max", MAX_HORIZON, MAX_HORIZON, 1)
    with pytest.raises(ParseError, match=f"at most {MAX_HORIZON} steps"):
        cli._check_count("--n-max", MAX_HORIZON + 1, MAX_HORIZON + 1, 1)


def test_scalar_counts_are_capped_by_their_python_steps(tmp_path, capsys):
    # at d = 1 the value bound alone would admit 2**24 grid points, powers
    # or Horner steps, each a Python-level step
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[0.5]])))
    _assert_parse_error(capsys, main(["resolvent-scan", path, "--points", str(2**19 + 1)]))
    _assert_parse_error(capsys, main(["gelfand", path, "--n-max", str(MAX_HORIZON + 1)]))
    series = write_json(tmp_path / "series.json", {"coeffs": [[[1.0, 0.0]]] * 4})
    _assert_parse_error(capsys, main(["cauchy-recover", series, "--k", "0", "--nodes", str(2**18 + 1)]))


def test_installed_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "seqspectrum.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum-scan" in proc.stdout


@pytest.mark.parametrize(
    "command", [["cayley"], ["ktz", "--theta", "1", "--n-max", "16"], ["ktz", "--theta", "1,0", "--n-max", "16"]]
)
def test_char_poly_overflow_writes_one_strict_error_line(tmp_path, capsys, command):
    # det(tI - A) = t^2 - 2e200 t + 1e400: the step-2 coefficient leaves the
    # float range, so cayley fails; ktz finds the eigenvalues without it
    entries = [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]
    path = write_json(tmp_path / "m.json", {"d": 2, "entries": entries})
    rc = main([command[0], path, *command[1:]])
    out, err = capsys.readouterr()
    if command[0] == "cayley":
        assert rc == 2
        err = _error_line(err)
        assert err["error"] == "ConvergenceError"
        assert err["payload"] == {"step": 2}
    else:
        assert rc == 0 and err == ""
        assert helpers.strict_json(out)["peripheral"] == []
        assert eigen.spectrum_info(CMatrix(np.diag([1e200, 1e200]))).eigenvalues == (1e200, 1e200)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum-scan", "SEQ", "--epsilon", "inf"],
        ["spectrum-scan", "SEQ", "--epsilon", "nan"],
        ["delay-simulate", "SYS", "--probe", "--peripheral-tol", "nan"],
        ["delay-simulate", "SYS", "--probe", "--peripheral-tol=-inf"],
        ["ktz", "MAT", "--theta", "1", "--limit-tol", "nan"],
        ["ktz", "MAT", "--theta", "1", "--limit-tol", "inf"],
        ["ktz", "MAT", "--theta", "1", "--bound", "nan"],  # inf is "no bound": see the ktz --bound inf test
        ["cauchy-recover", "SER", "--k", "1", "--radius", "inf"],
        ["cauchy-recover", "SER", "--k", "1", "--radius", "nan"],
        ["resolvent-scan", "MAT", "--radius", "1,nan"],
        ["pole-probe", "MAT", "--theta", "1", "--radii", "1e-2,inf"],
    ],
)
def test_float_flags_reject_non_finite_values(tmp_path, capsys, argv):
    inputs = {
        "SEQ": seq_file(tmp_path),
        "SYS": write_json(tmp_path / "system.json", alternating_system_json(64)),
        "MAT": write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[0.5]]))),
        "SER": write_json(tmp_path / "series.json", {"coeffs": [[[1.0, 0.0]], [[0.0, 1.0]]]}),
    }
    _assert_parse_error(capsys, main([inputs.get(a, a) for a in argv]))
