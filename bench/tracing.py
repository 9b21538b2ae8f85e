"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each module-level entry point is wrapped where its caller looks it up:
``cli.spectrum_scan`` and ``dynamics.spectrum_scan`` are two bindings of
one function, and both are wrapped, so every call path is seen.  A span
records calls, inclusive time and self time (inclusive minus wrapped
children).  Wrappers are installed only around traced rounds and removed
after them, so untraced rounds run the program untouched.

A binding that no longer exists is skipped with a note; its metrics then
read zero.
"""

import importlib
import random
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span).  One span may cover several bindings.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_json", "serialize.load"),
    ("cli", "parse_sequence", "serialize.parse"),
    ("cli", "parse_system", "serialize.parse"),
    ("cli", "parse_matrix", "serialize.parse"),
    ("cli", "dumps_report", "serialize.emit"),
    ("cli", "sequence_to_json", "serialize.emit"),
    ("cli", "to_jsonable", "serialize.emit"),
    ("cli", "spectrum_scan", "sequences.scan"),
    ("dynamics", "spectrum_scan", "sequences.scan"),
    ("sequences", "rotated_mean", "sequences.rotated_mean"),
    ("cli", "extract_modes", "sequences.modes"),
    ("sequences", "tail_norm", "sequences.tail"),
    ("dynamics", "difference_tail", "sequences.tail"),
    ("cli", "ktz_check", "sequences.ktz"),
    ("cli", "simulate_forced", "dynamics.simulate"),
    ("cli", "simulate_delay", "dynamics.simulate"),
    ("dynamics", "simulate_delay", "dynamics.simulate"),
    ("cli", "delay_limit_probe", "dynamics.probe"),
    ("resolvent", "_solve_array", "linalg.solve"),
    ("cli", "operator_norm", "linalg.norm"),
    ("linalg", "operator_norm", "linalg.norm"),
    ("eigen", "operator_norm", "linalg.norm"),
    ("sequences", "operator_norm", "linalg.norm"),
    ("resolvent", "operator_norm", "linalg.norm"),
    ("linalg", "_batched_spectral_norms", "linalg.batched_norm"),
    ("resolvent", "_batched_spectral_norms", "linalg.batched_norm"),
    ("eigen", "mat_power_seq", "linalg.power_seq"),
    ("eigen", "spectrum_info", "eigen.spectrum_info"),
    ("sequences", "spectrum_info", "eigen.spectrum_info"),
    ("resolvent", "spectrum_info", "eigen.spectrum_info"),
    ("dynamics", "spectrum_info", "eigen.spectrum_info"),
    ("eigen", "char_poly", "eigen.char_poly"),
    ("eigen", "poly_roots", "eigen.poly_roots"),
    ("cli", "gelfand_radius_estimate", "eigen.gelfand"),
    ("cli", "resolvent_norm_scan", "resolvent.norm_scan"),
    ("resolvent", "isometry_bound_check", "resolvent.isometry"),
    ("cli", "pole_order_probe", "resolvent.pole_probe"),
)

#: Norm inputs kept per tracer for the accuracy check against numpy's SVD.
NORM_SAMPLES = 64


class Tracer:
    """Span and counter store for one traced run; wraps and unwraps bindings."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.notes = []
        self._stack = []
        self._saved = []
        self._pick = random.Random(0)
        self._seen = defaultdict(int)
        self._norm_samples = {"single": [], "batched": []}
        self._modules = {}
        for module, attr, _ in TARGETS:
            if module in self._modules:
                continue
            try:
                self._modules[module] = importlib.import_module(f"seqspectrum.{module}")
            except ImportError as exc:
                self._modules[module] = None
                self.notes.append(f"seqspectrum.{module} not importable ({exc}); its spans read zero")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for module, attr, span in TARGETS:
            mod = self._modules.get(module)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                note = f"seqspectrum.{module}.{attr} not found; span {span} reads zero there"
                if note not in self.notes:
                    self.notes.append(note)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span):
        before = _BEFORE.get(span)
        after = _AFTER.get(span)

        def wrapper(*args, **kwargs):
            token = before(self) if before else None
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[span] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children[0]
            if after:
                try:
                    after(self, args, result, token)
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    note = f"span {span}: result not readable ({type(exc).__name__}: {exc})"
                    if note not in self.notes:
                        self.notes.append(note)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ norm samples

    def keep_norm(self, kind: str, matrix, value) -> None:
        """Reservoir sample of (matrix, reported norm) pairs."""
        self._seen[kind] += 1
        pool = self._norm_samples[kind]
        if len(pool) < NORM_SAMPLES:
            pool.append((np.array(matrix, dtype=np.complex128), float(value)))
            return
        j = self._pick.randrange(self._seen[kind])
        if j < NORM_SAMPLES:
            pool[j] = (np.array(matrix, dtype=np.complex128), float(value))

    def norm_max_rel_err(self) -> float:
        worst = 0.0
        for pool in self._norm_samples.values():
            for mat, value in pool:
                ref = float(np.linalg.svd(mat, compute_uv=False)[0])
                if ref > 0.0:
                    worst = max(worst, abs(value - ref) / ref)
        return worst

    # ------------------------------------------------------------ metrics

    def metrics(self, rounds: int) -> dict:
        """Per-layer values per traced round."""
        r = float(max(rounds, 1))
        t, c, k = self.total, self.calls, self.counters
        detections = k["scan_detections"]
        return {
            "cli.main_s": t["cli.main"] / r,
            "cli.self_s": self.self_time["cli.main"] / r,
            "serialize.load_s": t["serialize.load"] / r,
            "serialize.parse_s": t["serialize.parse"] / r,
            "serialize.emit_s": t["serialize.emit"] / r,
            "serialize.bytes_in": k["bytes_in"] / r,
            "serialize.bytes_out": k["bytes_out"] / r,
            "sequences.scan_calls": c["sequences.scan"] / r,
            "sequences.scan_s": t["sequences.scan"] / r,
            "sequences.rotated_mean_calls": c["sequences.rotated_mean"] / r,
            "sequences.rotated_mean_s": t["sequences.rotated_mean"] / r,
            "sequences.scan_other_s": (t["sequences.scan"] - k["scan_eval_s"]) / r,
            "sequences.evals_per_detection": k["scan_evals"] / detections if detections else 0.0,
            "sequences.modes_s": t["sequences.modes"] / r,
            "sequences.tail_s": t["sequences.tail"] / r,
            "sequences.ktz_s": t["sequences.ktz"] / r,
            "dynamics.simulate_s": t["dynamics.simulate"] / r,
            "dynamics.steps": k["steps"] / r,
            "dynamics.probe_s": t["dynamics.probe"] / r,
            "linalg.solve_calls": c["linalg.solve"] / r,
            "linalg.solve_s": t["linalg.solve"] / r,
            "linalg.norm_calls": c["linalg.norm"] / r,
            "linalg.norm_s": t["linalg.norm"] / r,
            "linalg.batched_norm_mats": k["batched_mats"] / r,
            "linalg.batched_norm_s": t["linalg.batched_norm"] / r,
            "linalg.power_seq_s": t["linalg.power_seq"] / r,
            "linalg.norm_max_rel_err": self.norm_max_rel_err(),
            "eigen.spectrum_info_s": t["eigen.spectrum_info"] / r,
            "eigen.char_poly_s": t["eigen.char_poly"] / r,
            "eigen.poly_roots_s": t["eigen.poly_roots"] / r,
            "eigen.poly_roots_failures": self.errors["eigen.poly_roots"] / r,
            "eigen.gelfand_s": t["eigen.gelfand"] / r,
            "resolvent.norm_scan_s": t["resolvent.norm_scan"] / r,
            "resolvent.grid_points": k["grid_points"] / r,
            "resolvent.isometry_s": t["resolvent.isometry"] / r,
            "resolvent.isometry_samples": k["isometry_samples"] / r,
            "resolvent.pole_probe_s": t["resolvent.pole_probe"] / r,
        }


# ---------------------------------------------------------------- counters


def _scan_before(tr):
    return tr.calls["sequences.rotated_mean"], tr.total["sequences.rotated_mean"]


def _scan_after(tr, args, result, token):
    calls, total = token
    tr.counters["scan_evals"] += tr.calls["sequences.rotated_mean"] - calls
    tr.counters["scan_eval_s"] += tr.total["sequences.rotated_mean"] - total
    tr.counters["scan_detections"] += len(result.detected)


def _load_after(tr, args, result, token):
    with open(args[0], "rb") as fh:
        fh.seek(0, 2)
        tr.counters["bytes_in"] += fh.tell()


def _emit_after(tr, args, result, token):
    if isinstance(result, str):  # dumps_report; the other emit spans return objects
        tr.counters["bytes_out"] += len(result.encode("utf-8"))


def _simulate_after(tr, args, result, token):
    delay = getattr(args[0], "p", 1)  # simulate_delay(system, ...) vs simulate_forced(b, ...)
    tr.counters["steps"] += result[0].horizon - delay


def _norm_after(tr, args, result, token):
    tr.keep_norm("single", getattr(args[0], "data", args[0]), result)


def _batched_after(tr, args, result, token):
    mats = args[0]
    tr.counters["batched_mats"] += mats.shape[0]
    for mat, value in zip(mats, result):
        tr.keep_norm("batched", mat, value)


def _grid_after(tr, args, result, token):
    tr.counters["grid_points"] += len(args[1])


def _isometry_after(tr, args, result, token):
    tr.counters["isometry_samples"] += len(args[1])


_BEFORE = {"sequences.scan": _scan_before}
_AFTER = {
    "sequences.scan": _scan_after,
    "serialize.load": _load_after,
    "serialize.emit": _emit_after,
    "dynamics.simulate": _simulate_after,
    "linalg.norm": _norm_after,
    "linalg.batched_norm": _batched_after,
    "resolvent.norm_scan": _grid_after,
    "resolvent.isometry": _isometry_after,
}
