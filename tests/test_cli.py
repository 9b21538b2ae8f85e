import io
import json
import subprocess
import sys

import numpy as np
import pytest

from seqspectrum import cli, dynamics, eigen, linalg
from seqspectrum.cli import main
from seqspectrum.dynamics import DelaySystem, ForcingSpec
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.sequences import MAX_HORIZON, modes_plus_decay
from seqspectrum.serialize import dumps_report, matrix_to_json, sequence_to_json, system_to_json


def write_json(path, obj):
    path.write_text(dumps_report(obj), encoding="utf-8")
    return str(path)


def seq_file(tmp_path, name="seq.json", horizon=1024):
    x = modes_plus_decay([(1j, (1.0,))], horizon, decay=("geometric", 0.5), seed=1)
    return write_json(tmp_path / name, sequence_to_json(x))


def alternating_system_json(horizon=256):
    system = DelaySystem(
        CMatrix.identity(1), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec.zero()
    )
    return system_to_json(system, horizon)


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
    err = json.loads(capsys.readouterr().err)
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


def test_cauchy_recover_command(tmp_path, capsys):
    payload = {"coeffs": [[[1.0, 0.0]], [[0.0, 2.0]], [[3.0, 0.0]]]}
    path = write_json(tmp_path / "series.json", payload)
    rc = main(["cauchy-recover", path, "--k", "1", "--nodes", "32"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abs_error"] <= 1e-12
    assert abs(report["coefficient"][0][1] - 2.0) <= 1e-12


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
    err = json.loads(capsys.readouterr().err)
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
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def _assert_parse_error(capsys, rc):
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
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
    err = json.loads(capsys.readouterr().err)
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
    err = json.loads(capsys.readouterr().err)
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
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "PreconditionError"


def _descriptor(**fields):
    return {"kind": "modes_plus_decay", "modes": [{"theta": [0, 1], "v": [[1, 0]]}], "horizon": 64, **fields}


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
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("horizon", OVERSIZED_HORIZONS)
def test_corpus_oversized_horizon_exits_parse_error(tmp_path, capsys, horizon):
    rc = main(["corpus", "--out-dir", str(tmp_path / "corpus"), "--horizon", str(horizon)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    assert not (tmp_path / "corpus").exists()


def test_bad_theta_flag(tmp_path, capsys):
    path = seq_file(tmp_path)
    rc = main(["modes", path, "--theta", "zero"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("theta, code", [("-1,0", 0), ("-0.6,-0.8", 0), ("-0.5,0.2", 3)])
def test_negative_theta_as_separate_argument(tmp_path, capsys, theta, code):
    # -0.5,0.2 parses but is off the unit circle: a precondition failure, not a usage error
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, 0.5]))))
    rc = main(["ktz", path, "--theta", theta, "--n-max", "64"])
    separate = capsys.readouterr()
    assert rc == code
    assert main(["ktz", path, f"--theta={theta}", "--n-max", "64"]) == code
    assert capsys.readouterr() == separate


def test_norm_kernel_failure_reports_payload(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 3)
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix(np.diag([1.0, 1.0 - 1e-7, 0.5]))))
    rc = main(["cayley", path])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert sorted(err["payload"]) == ["index", "lower", "upper"]
    assert err["payload"]["lower"] <= err["payload"]["upper"]


def test_root_finder_failure_reports_complex_payload(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigen.poly_roots, "__defaults__", (1,))  # one sweep
    path = write_json(tmp_path / "m.json", matrix_to_json(CMatrix([[1.0, 2.0], [3.0, 4.0]])))
    rc = main(["gelfand", path, "--n-max", "16"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConvergenceError"
    assert len(err["payload"]["roots"]) == 2
    assert all(len(z) == 2 for z in err["payload"]["roots"])


def test_installed_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "seqspectrum.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum-scan" in proc.stdout
