"""Independent numpy checks for every benchmark op.

A check ends in one of three verdicts:

* ``ok``: every check passed.
* ``miss``: the answer is outside the accuracy target but inside what
  the program documents at this commit.  Two cases exist: a spectral
  norm off numpy's SVD by more than 1e-8 but at most 1e-2 relative
  (power iteration with a Rayleigh-quotient stop rule), and a
  ``ConvergenceError`` (exit 2) from the characteristic-polynomial root
  finder above dimension 20, where the eigen module says accuracy
  degrades.  Misses count against ``pass_share``.
* ``fail``: anything else: a raise, an unexpected exit status, or an
  answer outside the tolerances below.  Fails make the run incorrect.

numpy.linalg is the oracle here, as in the test suite.
"""

import cmath
import dataclasses
import json
import math

import numpy as np

#: Accuracy target for spectral norms, relative to numpy's SVD.
STRICT_NORM_RTOL = 1e-8
#: Beyond this the norm is wrong, not merely inaccurate.
HARD_NORM_RTOL = 1e-2
#: Scan detections must land this close to a planted theta (radians).
SCAN_ATOL = 1e-3
#: Trajectories against the numpy recursion, relative to the sup norm.
TRAJECTORY_RTOL = 1e-10
#: Dimension above which the eigen module documents degraded root accuracy.
ROOT_ACCURACY_DIM = 20


class Fail(Exception):
    pass


class _Misses(list):
    def rel(self, got, ref, what: str) -> None:
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        err = float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))
        if not err <= HARD_NORM_RTOL:
            raise Fail(f"{what} off the numpy SVD by {err:.3e} relative")
        if err > STRICT_NORM_RTOL:
            self.append(f"{what} off the numpy SVD by {err:.3e} relative (target {STRICT_NORM_RTOL:.0e})")


def need(cond, message: str) -> None:
    if not cond:
        raise Fail(message)


def angle(a: complex, b: complex) -> float:
    d = (cmath.phase(a) - cmath.phase(b)) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def _cx_array(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _succeeded(out) -> None:
    need(out.error is None, f"raised {out.error}")
    need(out.rc == 0, f"exit {out.rc}: {out.stderr.strip()[:200]}")


def _report(out) -> dict:
    _succeeded(out)
    return json.loads(out.stdout)


def trajectory(expect: dict) -> np.ndarray:
    """x_{n+p} = B x_n + y_n by a plain numpy loop; cached on the op."""
    if "_x" not in expect:
        b, p, h = expect["B"], expect["p"], expect["horizon"]
        x = np.empty((h, b.shape[0]), dtype=np.complex128)
        x[:p] = expect["initial"]
        y = np.zeros_like(x)
        if expect["forcing"] is not None:
            ratio, direction = expect["forcing"]
            y = (ratio ** np.arange(h, dtype=float))[:, None] * direction
        for n in range(h - p):
            x[n + p] = b @ x[n] + y[n]
        expect["_x"] = x
    return expect["_x"]


def _check_trajectory_doc(doc: dict, expect: dict) -> None:
    x = trajectory(expect)
    seq = doc["sequence"]
    need(seq["kind"] == "materialized", f"sequence kind {seq['kind']!r}")
    values = _cx_array(seq["values"])
    need(values.shape == x.shape, f"trajectory shape {values.shape} != {x.shape}")
    sup = float(np.max(np.linalg.norm(x, axis=1)))
    err = float(np.max(np.abs(values - x)))
    need(err <= TRAJECTORY_RTOL * (1.0 + sup), f"trajectory off the numpy recursion by {err:.3e}")
    report = doc["trajectory_report"]
    need(report["horizon"] == expect["horizon"], "trajectory horizon")
    need(abs(report["sup_norm"] - sup) <= 1e-9 * sup, f"sup norm {report['sup_norm']!r} != {sup!r}")


def _planted_detections(report: dict, thetas) -> None:
    found = [_cx(d["theta"]) for d in report["detected"]]
    need(len(found) == len(thetas), f"{len(found)} detections for {len(thetas)} planted thetas")
    for t in thetas:
        dist = min(angle(t, f) for f in found)
        need(dist <= SCAN_ATOL, f"planted theta {t:.6f} missed by {dist:.3e} rad")


def _check_scan(op, out, misses) -> None:
    report = _report(out)
    need(report["horizon"] == op.expect["horizon"], "scan horizon")
    _planted_detections(report, op.expect["thetas"])


def _envelope_mean(decay, n: int) -> tuple[float, float]:
    """(mean of the decay envelope over n terms, envelope at n // 2)."""
    if decay is None:
        return 0.0, 0.0
    k = np.arange(n, dtype=float)
    kind, param = decay
    with np.errstate(under="ignore"):
        env = param**k if kind == "geometric" else (k + 1.0) ** (-param)
    return float(env.sum() / n), float(env[n // 2])


def _cross_terms(j: int, thetas, vs, n: int) -> float:
    """Bound on the other modes' share of mode j's rotated mean."""
    return sum(
        2.0 * float(np.linalg.norm(vk)) / (n * abs(thetas[j] - tk))
        for k, (tk, vk) in enumerate(zip(thetas, vs)) if k != j
    )


def _check_modes(op, out, misses) -> None:
    report = _report(out)
    ex = op.expect
    thetas, vs, n = ex["thetas"], ex["vs"], ex["horizon"]
    modes = report["modes"]
    need(len(modes) == len(thetas), f"{len(modes)} modes for {len(thetas)} thetas")
    got = [_cx_array(m["v"]) for m in modes]
    for m, t in zip(modes, thetas):
        need(abs(_cx(m["theta"]) - t) <= 1e-12, "mode theta echoed wrongly")
    scale = 1.0 + sum(float(np.linalg.norm(v)) for v in vs)
    if "B" in ex:
        # Same estimator evaluated directly on the numpy trajectory.
        x = trajectory(ex)
        sup = float(np.max(np.linalg.norm(x, axis=1)))
        k = np.arange(n)
        for j, (g, t, v) in enumerate(zip(got, thetas, vs)):
            direct = np.exp(-1j * cmath.phase(t) * k) @ x / n
            err = float(np.linalg.norm(g - direct))
            need(err <= 1e-9 * (1.0 + sup), f"amplitude off the direct mean by {err:.3e}")
            # Construction check: the planted amplitude, up to cross terms and
            # a transient whose mean is O(sup / n).
            bound = _cross_terms(j, thetas, vs, n) + 20.0 * sup / n
            need(np.linalg.norm(g - v) <= bound, "amplitude far from the planted mode")
        return
    # Corpus member: bound every amplitude error by the cross terms of the
    # other modes, 2 |v_k| / (n |theta_j - theta_k|), plus the mean of the decay.
    decay_mean, decay_mid = _envelope_mean(ex["decay"], n)
    errs = []
    for j, (g, v) in enumerate(zip(got, vs)):
        bound = decay_mean + 1e-9 * scale + _cross_terms(j, thetas, vs, n)
        err = float(np.linalg.norm(g - v))
        need(err <= bound, f"amplitude error {err:.3e} above the bound {bound:.3e}")
        errs.append(err)
    residual = report["residual"]
    need(residual["window_start"] == n // 2, "residual window")
    gap = abs(residual["tail_sup"] - decay_mid)
    need(gap <= sum(errs) + 1e-9 * scale * max(decay_mid, 1e-300) + 1e-12 * scale,
         f"residual tail {residual['tail_sup']!r} vs decay {decay_mid!r}")


def _tail(x: np.ndarray, theta: complex, step: int) -> tuple[int, float]:
    norms = np.linalg.norm(x[step:] - theta * x[:-step], axis=1)
    start = min(x.shape[0] // 2, norms.shape[0] - 1)
    return start, float(norms[start:].max())


def _check_probe(op, out, misses) -> None:
    doc = _report(out)
    ex = op.expect
    _check_trajectory_doc(doc, ex)
    probe = doc["delay_probe"]
    x = trajectory(ex)
    sup = float(np.max(np.linalg.norm(x, axis=1)))
    peripheral = [_cx(z) for z in probe["peripheral"]]
    need(len(peripheral) == 1, f"{len(peripheral)} unit-circle eigenvalues, built with one")
    theta = _cx(probe["theta"])
    need(abs(theta - ex["theta"]) <= 1e-8 and theta == peripheral[0], f"probe theta {theta} != {ex['theta']}")
    for key, step in (("one_step", 1), ("p_step", ex["p"])):
        start, ref = _tail(x, theta, step)
        stats = probe[key]
        need(stats["window_start"] == start, f"{key} window")
        need(abs(stats["tail_sup"] - ref) <= 1e-9 * (1.0 + sup), f"{key} tail {stats['tail_sup']!r} != {ref!r}")
    roots = [_cx(z) for z in probe["theta_roots"]]
    need(len(roots) == ex["p"] and all(abs(r ** ex["p"] - theta) <= 1e-12 for r in roots), "p-th roots of theta")
    detected = [_cx(d["theta"]) for d in probe["scan_detected"]]
    matches = [d for d in detected if any(angle(d, r) <= 1e-2 for r in roots)]
    need([_cx(d["theta"]) for d in probe["root_matches"]] == matches, "root matches")
    need(probe["scan_contained"] == (len(matches) == len(detected)), "scan containment flag")
    if ex.get("counterexample"):
        need(abs(probe["one_step"]["tail_sup"] - 2.0) <= 1e-12, "criterion 10: one-step tail is not 2")
        need(probe["p_step"]["tail_sup"] <= 1e-12, "criterion 10: p-step tail is not 0")


def _check_write(op, out, misses) -> None:
    _succeeded(out)
    need(out.file_bytes is not None, "no trajectory file written")
    doc = json.loads(out.file_bytes)
    _check_trajectory_doc(doc, op.expect)
    need(doc["trajectory_report"]["bounded_verdict"] is True, "bounded trajectory classified unbounded")


def _svd_norms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _check_resolvent_scan(op, out, misses) -> None:
    samples = _report(out)["samples"]
    a, points = op.expect["A"], op.expect["points"]
    grid = np.concatenate([r * np.exp(2j * np.pi * np.arange(points) / points) for r in op.expect["radii"]])
    need(len(samples) == grid.size, f"{len(samples)} samples for {grid.size} grid points")
    lams = np.array([_cx(s["lam"]) for s in samples])
    need(np.max(np.abs(lams - grid)) <= 1e-12, "grid points")
    need(not any(s["singular_flag"] for s in samples), "singular flag off the spectrum")
    eye = np.eye(a.shape[0])
    ref = _svd_norms(np.linalg.inv(grid[:, None, None] * eye - a))
    misses.rel([s["resolvent_norm"] for s in samples], ref, "resolvent norm")


def _check_pole_probe(op, out, misses) -> None:
    report = _report(out)
    need(abs(_cx(report["center"]) - op.expect["theta"]) <= 1e-12, "probe center")
    need(tuple(report["radii"]) == op.expect["radii"], "probe radii")
    need(0.9 <= report["fitted_order"] <= 1.1, f"fitted order {report['fitted_order']!r} outside [0.9, 1.1]")
    # A unitary matrix is normal, so ||R(lambda)|| = 1 / dist(lambda, spectrum) = 1 / r.
    misses.rel(report["norms"], 1.0 / np.asarray(op.expect["radii"]), "pole-probe resolvent norm")


def _check_ktz(op, out, misses) -> None:
    report = _report(out)
    expected = op.expect["peripheral"]
    got = [_cx(z) for z in report["peripheral"]]
    need(len(got) == len(expected), f"{len(got)} unit-circle eigenvalues, built with {len(expected)}")
    for t in expected:
        need(min(abs(t - g) for g in got) <= 1e-8, f"unit-circle eigenvalue {t:.6f} missed")
    met = op.expect["met"]
    need(report["power_bounded"] is True, "unitarily conjugated matrix read as not power bounded")
    need(report["peripheral_ok"] is met and report["hypotheses_met"] is met, f"hypotheses_met should be {met}")
    if met:
        need(report["limit_attained"] is True, "limit not attained")
        need(report["operator_tail_sup"] <= report["limit_tol"], "operator tail above the limit tolerance")


def _check_gelfand(op, out, misses) -> None:
    a = op.expect["A"]
    report = _report(out)
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    err = abs(report["estimate"] - rho)
    need(err <= 0.05 * (1.0 + rho), f"criterion 2: estimate off the spectral radius by {err:.3e}")


def _check_cayley(op, out, misses) -> None:
    report = _report(out)
    a = op.expect["A"]
    d = a.shape[0]
    need(report["d"] == d, "dimension")
    norm = float(_svd_norms(a))
    need(report["residual"] <= 1e-8 * (1.0 + norm) ** d, f"criterion 1: residual {report['residual']!r}")
    misses.rel(report["matrix_norm"], norm, "matrix norm")


def _check_isometry(op, out, misses) -> None:
    need(out.error is None, f"raised {out.error}")
    report = out.value
    need(report.samples_checked == len(op.expect["samples"]), "samples checked")
    need(report.violations == 0, f"{report.violations} violations of ||R|| <= 1 / ||lambda| - 1|")


_CHECKS = {
    "spectrum-scan": _check_scan,
    "modes": _check_modes,
    "delay-simulate-probe": _check_probe,
    "simulate": _check_write,
    "delay-simulate": _check_write,
    "resolvent-scan": _check_resolvent_scan,
    "pole-probe": _check_pole_probe,
    "ktz": _check_ktz,
    "gelfand": _check_gelfand,
    "cayley": _check_cayley,
    "isometry": _check_isometry,
}


def check(op, out) -> tuple[str, str]:
    """(verdict, reason) for one op's outcome."""
    misses = _Misses()
    d = op.expect.get("d", 0)
    if out.error is None and out.rc == 2 and "ConvergenceError" in out.stderr and d > ROOT_ACCURACY_DIM:
        return "miss", f"ConvergenceError from the root finder at d = {d}"
    try:
        _CHECKS[op.kind](op, out, misses)
    except Fail as exc:
        return "fail", str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return "fail", f"unreadable output: {type(exc).__name__}: {exc}"
    if misses:
        return "miss", misses[0]
    return "ok", ""


# ---------------------------------------------------------------- self-test corruption


def _edit_json(text, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _corrupt_modes(doc) -> None:
    if doc["modes"]:
        doc["modes"][0]["v"] = [[1.5 * re, 1.5 * im] for re, im in doc["modes"][0]["v"]]
    else:
        doc["residual"]["tail_sup"] = 2.0 * doc["residual"]["tail_sup"] + 1.0


def _bump_last_value(doc) -> None:
    doc["sequence"]["values"][-1][0][0] += 1.0


_JSON_CORRUPTIONS = {
    "spectrum-scan": lambda doc: doc["detected"].append({"theta": [-1.0, 0.0], "peak_mean_norm": 1.0}),
    "modes": _corrupt_modes,
    "delay-simulate-probe": _bump_last_value,
    "resolvent-scan": lambda doc: doc["samples"][0].update(resolvent_norm=1.5 * doc["samples"][0]["resolvent_norm"]),
    "pole-probe": lambda doc: doc.update(fitted_order=2.0),
    "ktz": lambda doc: doc.update(hypotheses_met=not doc["hypotheses_met"]),
    "gelfand": lambda doc: doc.update(estimate=doc["estimate"] + 10.0),
    "cayley": lambda doc: doc.update(matrix_norm=1.5 * doc["matrix_norm"]),
}


def corrupt(op, out):
    """A copy of ``out`` with one result deliberately wrong."""
    if op.kind == "isometry":
        return dataclasses.replace(out, value=dataclasses.replace(out.value, violations=1))
    if op.kind in ("simulate", "delay-simulate"):
        bad = _edit_json(out.file_bytes.decode("utf-8"), _bump_last_value)
        return dataclasses.replace(out, file_bytes=bad.encode("utf-8"))
    return dataclasses.replace(out, stdout=_edit_json(out.stdout, _JSON_CORRUPTIONS[op.kind]))
