"""seqspectrum benchmark: four oracle-checked CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in its own
child process with BLAS and OpenMP pinned to one thread through the
child's environment.  With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  The last stdout line is the result object; see bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
#: Calibration kernel runs between two fresh interpreters.
SETUP_CALIB_RUNS = 9
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import seqspectrum.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)

#: The worker must finish within this, leaving room under the 180 s limit.
WORKER_TIMEOUT_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Median fresh-interpreter time of ``import seqspectrum.cli`` plus ``build_parser()``,
    in reference seconds: each is scaled by the calibration runs before and after it.
    Runs in a child with the pinned environment, like the workloads."""
    from calibration import Calibration

    calibration = Calibration("setup")

    def kernel_median():
        return statistics.median(calibration.timed() for _ in range(SETUP_CALIB_RUNS))

    times = []
    before = kernel_median()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        after = kernel_median()
        times.append(float(done.stdout.strip()) * calibration.scale(before, after))
        before = after
    return statistics.median(times)


def setup_seconds(env: dict) -> float:
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
                 inject: bool = False) -> tuple[list[str], dict]:
    """(note lines, result object) for one workload; raises RuntimeError on failure."""
    env = child_env()
    setup = setup_seconds(env) if not trace else None
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if inject:
        cmd.append("--inject-corruption")
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"workload {workload} exceeded {WORKER_TIMEOUT_S} s") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"workload {workload} exited {done.returncode}:\n{done.stdout}")
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return lines[:-1], result


def _check_source_tree() -> None:
    if not (SRC / "seqspectrum" / "cli.py").is_file():
        raise RuntimeError(f"no seqspectrum source under {SRC}; run from a full checkout")


def self_test() -> int:
    """Tiny sizes: every metric of BENCHMARK.json appears with its unit, and
    a corrupted result of every op kind is counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    t0 = time.perf_counter()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            _, result = run_workload(workload, 1, 0.5, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed ops on clean inputs")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace {trace}: non-numeric {bad}")
        notes, result = run_workload(workload, 1, 0.5, 0, tiny=True, inject=True)
        injected = int(next(n for n in notes if n.startswith("# injected")).split()[2])
        if injected == 0 or result["failed"] != injected or result["correct"]:
            problems.append(f"{workload}: {injected} corrupted results, {result['failed']} counted as failed")
        print(f"# self-test {workload}: ok so far, {injected} corruptions caught" if not problems else
              f"# self-test {workload}: problems so far {len(problems)}")
    for p in problems:
        print("# FAIL " + p)
    print(f"# self-test {'passed' if not problems else 'failed'} in {time.perf_counter() - t0:.1f} s")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="tiny sizes; check metric names and the oracle")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        _check_source_tree()
        if args.setup_child:
            print(measure_setup())
            return 0
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        notes, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(notes))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
