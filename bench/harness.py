"""One workload in one process: generate, warm up, measure, check.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and the
checkout's ``src`` on PYTHONPATH.  Load is a closed loop with a single
client: ops run back to back in-process through ``seqspectrum.cli.main``
(and ``isometry_bound_check``, which has no subcommand).  A round is one
pass over the workload's op list; only whole rounds are measured, so
every run times the same mix.

Every op's output is checked by ``oracle``.  The warm-up round checks
each op in full; a later output that is byte-identical to a checked one
takes its verdict, and any other output is checked in full again.

The last stdout line is the result object; lines before it start with
``#`` and describe the run.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import calibration
import oracle
import tracing
import workloads

#: Every input is timed at least this often in a run.
MIN_ROUNDS = 4


@dataclasses.dataclass
class Outcome:
    rc: int | None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    value: object = None
    file_bytes: bytes | None = None

    def key(self):
        last_err = self.stderr.rstrip().rsplit("\n", 1)[-1] if self.rc else ""
        return (self.rc, self.error, self.stdout, self.file_bytes, repr(self.value), last_err)


class Runner:
    def __init__(self, wl, inject: bool = False):
        from seqspectrum import cli, linalg, resolvent

        self.wl = wl
        self.cli, self.linalg, self.resolvent = cli, linalg, resolvent
        self.verified = {}  # op index -> (outcome key, verdict, reason)
        self.inject = inject
        self.injected = 0
        self.reasons = {}  # (kind, verdict) -> first reason
        self.calibration = calibration.Calibration(wl.name)
        self.kernel_runs = []  # calibration kernel seconds, in calibrated rounds

    def execute(self, op) -> tuple[Outcome, float]:
        if op.argv is None:
            # isometry_bound_check is looked up at call time so the traced
            # run sees it through its module binding.
            t0 = time.perf_counter()
            try:
                value = self.resolvent.isometry_bound_check(self.linalg.CMatrix(op.expect["U"]), op.expect["samples"])
                out = Outcome(None, value=value)
            except Exception as exc:
                out = Outcome(None, error=f"{type(exc).__name__}: {exc}")
            return out, time.perf_counter() - t0
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(op.argv)
            out = Outcome(rc, stdout.getvalue(), stderr.getvalue())
        except (Exception, SystemExit) as exc:
            out = Outcome(None, stdout.getvalue(), stderr.getvalue(), error=f"{type(exc).__name__}: {exc}")
            if (op.kind, "trace") not in self.reasons:
                self.reasons[(op.kind, "trace")] = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
        if op.out_path is not None and os.path.exists(op.out_path):
            out.file_bytes = Path(op.out_path).read_bytes()
        return out, elapsed

    def verdict(self, i: int, op, out: Outcome) -> str:
        key = out.key()
        known = self.verified.get(i)
        if known is not None and known[0] == key:
            return known[1]
        status, reason = oracle.check(op, out)
        if known is None:
            self.verified[i] = (key, status, reason)
        if status != "ok":
            self.reasons.setdefault((op.kind, status), reason)
        return status

    def round(self, tracer=None, inject: bool = False, calibrate: bool = False) -> list:
        """Run every op once; returns (kind, klass, seconds, verdict, reference seconds) rows.

        With ``calibrate``, the calibration kernel runs between ops, and each
        op's reference seconds use the runs just before and after it; without,
        the last field is None.
        """
        rows = []
        corrupted = set()
        gc.collect()
        kernel = self.calibration.timed() if calibrate else None
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.install()
            try:
                out, elapsed = self.execute(op)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if inject and op.kind not in corrupted and self.verified[i][1] == "ok":
                out = oracle.corrupt(op, out)
                corrupted.add(op.kind)
                self.injected += 1
            reference = None
            if calibrate:
                before, kernel = kernel, self.calibration.timed()
                self.kernel_runs.append(kernel)
                reference = elapsed * self.calibration.scale(before, kernel)
            rows.append((op.kind, op.klass, elapsed, self.verdict(i, op, out), reference))
        return rows


def _busy(rows) -> float:
    return sum(r[2] for r in rows)


def interquartile_mean(samples: np.ndarray) -> np.ndarray:
    """Mean of each column's samples with the lowest and highest quarter dropped."""
    cut = samples.shape[0] // 4
    return np.sort(samples, axis=0)[cut: samples.shape[0] - cut].mean(axis=0)


def end_to_end(wl, rounds) -> dict:
    """Timing metrics in reference seconds (see calibration.py), from each
    input's interquartile mean over the rounds."""
    ops = wl.ops
    rows = [r for rr in rounds for r in rr]
    per_input = interquartile_mean(np.array([[r[4] for r in rr] for rr in rounds]))
    ok = sum(1 for r in rows if r[3] == "ok")

    def p50_of(klass):
        sel = [b for b, op in zip(per_input, ops) if op.klass == klass]
        return float(np.median(sel if sel else per_input))

    return {
        "ops_per_s": (len(ops) / float(per_input.sum()), "1/s"),
        "op_p50_s": (float(np.median(per_input)), "s"),
        "op_tail_s": (float(np.percentile(per_input, wl.tail_pct)), "s"),
        "write_op_p50_s": (p50_of("write"), "s"),
        "read_op_p50_s": (p50_of("read"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_share": (ok / len(rows), "share"),
    }


def _blas_threads():
    """OpenBLAS's own thread count, when numpy bundles an OpenBLAS we can ask."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _kind_table(rows) -> list[str]:
    by_kind = defaultdict(list)
    for kind, _, elapsed, status, _ in rows:
        by_kind[kind].append((elapsed, status))
    lines = [f"{'op kind':<22}{'ops':>6}{'ok':>6}{'miss':>6}{'fail':>6}{'p50 s':>11}"]
    for kind, items in by_kind.items():
        counts = Counter(s for _, s in items)
        p50 = float(np.median([e for e, _ in items]))
        lines.append(f"{kind:<22}{len(items):>6}{counts['ok']:>6}{counts['miss']:>6}{counts['fail']:>6}{p50:>11.4f}")
    return lines


def measure(runner, seconds: float, trace: bool):
    """Timed rounds after one untimed warm-up round.  Returns (rows, metrics, notes)."""
    wl = runner.wl
    runner.round()  # warm-up: caches, lazy imports, and the full oracle pass
    notes = []
    if not trace:
        rounds = []
        t0 = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            rounds.append(runner.round(inject=runner.inject and not rounds, calibrate=True))
        rows = [r for rr in rounds for r in rr]
        metrics = end_to_end(wl, rounds)
        took = runner.kernel_runs
        notes.append(f"{len(rounds)} rounds, {len(rows)} ops, {_busy(rows):.3f} s busy; timings use each of the "
                     f"{len(wl.ops)} inputs' interquartile mean of {len(rounds)}; op_tail_s is their percentile {wl.tail_pct}")
        notes.append(f"calibration kernel: {len(took)} runs, median {np.median(took):.6f} s, quartiles "
                     f"{np.quantile(took, 0.25):.6f}-{np.quantile(took, 0.75):.6f} s; reference {runner.calibration.reference_s} s")
        notes.append(f"wall seconds, uncalibrated: ops_per_s {len(rows) / _busy(rows):.4f}, "
                     f"op_p50_s {np.median([r[2] for r in rows]):.6f}")
        return rows, metrics, notes
    # Traced and untraced rounds alternate, the same number of each, so the
    # difference in their busy time is the tracing overhead.
    tracer = tracing.Tracer()
    rows, plain, traced, rounds = [], 0.0, 0.0, 0
    while rounds == 0 or plain + traced < seconds:
        untraced_rows = runner.round(inject=runner.inject and rounds == 0)
        traced_rows = runner.round(tracer=tracer)
        plain += _busy(untraced_rows)
        traced += _busy(traced_rows)
        rows += untraced_rows + traced_rows
        rounds += 1
    values = tracer.metrics(rounds)
    values["trace.overhead_share"] = (traced - plain) / plain
    metrics = {name: (value, _layer_unit(name)) for name, value in values.items()}
    notes.append(f"{rounds} traced and {rounds} untraced rounds, {len(rows)} ops; per-layer values are per round")
    notes += tracer.notes
    top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:8]
    notes.append("self time per round: " + ", ".join(f"{k} {v / rounds:.4f}s" for k, v in top))
    return rows, metrics, notes


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("serialize.bytes"):
        return "bytes"
    if name.endswith(("_err", "_share", "_per_detection")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload (started by run.py)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-corruption", action="store_true")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    import seqspectrum

    if not Path(seqspectrum.__file__).resolve().is_relative_to(root / "src"):
        print(f"seqspectrum imported from {seqspectrum.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.generate(args.workload, args.seed, work, tiny=args.tiny)
        runner = Runner(wl, inject=args.inject_corruption)
        rows, metrics, notes = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another workload process
            work.parent.rmdir()
    failed = sum(1 for r in rows if r[3] == "fail")
    print(f"# workload {wl.name}, seed {wl.seed}, {len(wl.ops)} ops per round, tiny={args.tiny}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    for line in notes + _kind_table(rows):
        print("# " + line)
    for (kind, status), reason in sorted(runner.reasons.items()):
        print(f"# first {status} of {kind}: {reason}".rstrip().replace("\n", "\n# "))
    if args.inject_corruption:
        print(f"# injected {runner.injected} corrupted results")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
