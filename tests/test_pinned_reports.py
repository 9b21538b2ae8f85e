"""Report bytes pinned by sha256.

Every report below goes through the power-norm sequence, the slope fit,
the tail statistics or the [re, im] wire encoder or decoder.  The digests
were taken from ``dumps_report`` (or the CLI's output files) of the code
before those paths were merged, so any change in a float's last bit
shows here.
"""

import cmath
import hashlib

import numpy as np
import pytest

import helpers
from seqspectrum.cli import main
from seqspectrum.corpus import generate_corpus
from seqspectrum.dynamics import DelaySystem, ForcingSpec
from seqspectrum.eigen import gelfand_radius_estimate, power_bounded_probe
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.resolvent import pole_order_probe
from seqspectrum.sequences import BoundedSeq, extract_modes, ktz_check, modes_plus_decay, vanishing_check
from seqspectrum.serialize import (
    dumps_report,
    forcing_to_json,
    matrix_to_json,
    sequence_to_json,
    system_to_json,
    vector_to_json,
)

NILPOTENT = CMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
JORDAN = CMatrix([[0.8, 1.0], [0.0, 0.8]])
UNIPOTENT = CMatrix([[1.0, 1.0], [0.0, 1.0]])
ROTATION = CMatrix([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])


def _ginibre(seed, d):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return CMatrix(z / np.sqrt(2.0))


def _unitary():
    # a Householder reflection conjugating a diagonal of spread phases
    w = np.array([1.0, 0.5 - 0.25j, -0.75j, 0.3])
    v = np.eye(4) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    return CMatrix(v @ np.diag(np.exp(1j * np.array([0.3, 1.9, 3.4, 5.0]))) @ v.conj().T)


#: Corpus members whose vanishing checks are pinned: every vanishing
#: member, and others whose scans finish quickly at this horizon.
VANISHING_IDS = {f"vanishing-{i}" for i in range(8)} | {
    "single-mode-0",
    "single-mode-4",
    "two-mode-0",
    "two-mode-3",
    "mode-plus-decay-3",
    "mode-plus-decay-4",
    "mode-plus-decay-6",
}


def _corpus():
    return generate_corpus(seed=7, horizon=2048)


def _bytes(report):
    return dumps_report(report).encode("utf-8")


def _cli_bytes(tmp_path, argv, inputs):
    paths = []
    for name, obj in inputs.items():
        path = tmp_path / name
        path.write_bytes(_bytes(obj))
        paths.append(str(path))
    out = tmp_path / "report.json"
    assert main([argv[0], *paths, *argv[1:], "--out", str(out)]) == 0
    return out.read_bytes()


def _corpus_bytes(tmp_path):
    out_dir = tmp_path / "corpus"
    assert main(["corpus", "--out-dir", str(out_dir), "--seed", "7", "--horizon", "256"]) == 0
    return b"".join(path.read_bytes() for path in sorted(out_dir.iterdir()))


def _system():
    b = CMatrix([[0.6, 0.3j], [-0.2, 0.5 + 0.4j]])
    forcing = ForcingSpec("geometric", 0.9, direction=[1.0 - 0.5j, 0.25j])
    return DelaySystem(b, 1, [CVector([1.0, -2.0j])], forcing)


def _delay_system():
    b = CMatrix([[cmath.exp(0.9j), 0.3], [0.0, 0.4]])
    forcing = ForcingSpec("geometric", 0.8, direction=[0.5j, 1.0])
    return DelaySystem(b, 2, [CVector([1.0, -0.5j]), CVector([0.25, 1.0])], forcing)


def _wire_formats():
    x = modes_plus_decay(
        [(cmath.exp(0.4j), [1.0, 0.5j]), (-1.0, [0.25, -1.0])], 64, decay=("power", 1.5), seed=3
    )
    table = ForcingSpec("custom_table", table=np.arange(12).reshape(6, 2) * (0.1 - 0.3j))
    return {
        "matrix": matrix_to_json(_ginibre(3, 3)),
        "vector": vector_to_json(CVector([1.0, -0.0, 2.5j])),
        "forcing_table": forcing_to_json(table),
        "system": system_to_json(_system(), 128),
        "descriptor": sequence_to_json(x),
        "materialized": sequence_to_json(BoundedSeq(x.values)),
    }


def _materialized():
    """A materialized envelope whose values include -0.0 parts, JSON ints
    and a subnormal, so the readers' decoding is pinned bit for bit."""
    x = modes_plus_decay(
        [(cmath.exp(1.1j), [1.0, -0.5j]), (1j, [0.25, 0.75])], 256, decay=("geometric", 0.9), seed=5
    )
    obj = sequence_to_json(BoundedSeq(x.values))
    values = obj["values"] = obj["values"].tolist()  # lists keep the planted JSON ints
    values[0] = [[1, 0], [-2, 3]]
    values[1][0] = [-0.0, 5e-324]
    values[2][1] = [0.5, -0.0]
    values[3][0] = [-5e-324, 0]
    return {"sequence": obj}


REPORTS = {
    "gelfand-diagonal": lambda tmp: _bytes(
        gelfand_radius_estimate(CMatrix(np.diag([0.9, 0.5j, -0.3])), 64)
    ),
    "gelfand-nilpotent": lambda tmp: _bytes(gelfand_radius_estimate(NILPOTENT, 64)),
    "gelfand-jordan": lambda tmp: _bytes(gelfand_radius_estimate(JORDAN, 256)),
    "gelfand-random-16": lambda tmp: _bytes(gelfand_radius_estimate(_ginibre(16, 16), 256)),
    "ktz-met": lambda tmp: _bytes(
        ktz_check(CMatrix([[1.0, 0.3, 0.0], [0.0, 0.5, 0.2], [0.0, 0.0, -0.25j]]), 1.0, 128)
    ),
    "ktz-not-met": lambda tmp: _bytes(ktz_check(UNIPOTENT, 1.0, 128)),
    "ktz-nilpotent": lambda tmp: _bytes(ktz_check(NILPOTENT, 1.0, 128)),
    "power-decaying": lambda tmp: _bytes(power_bounded_probe(JORDAN, 64, 1e6)),
    "power-bounded": lambda tmp: _bytes(power_bounded_probe(ROTATION, 64, 1e6)),
    "power-polynomial": lambda tmp: _bytes(power_bounded_probe(UNIPOTENT, 64, 1e6)),
    "pole-order": lambda tmp: _bytes(
        pole_order_probe(_unitary(), cmath.exp(1.9j), [1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    ),
    "corpus-modes": lambda tmp: _bytes(
        {m.member_id: extract_modes(m.seq, m.thetas) for m in _corpus() if m.thetas}
    ),
    "corpus-vanishing": lambda tmp: _bytes(
        {m.member_id: vanishing_check(m.seq) for m in _corpus() if m.member_id in VANISHING_IDS}
    ),
    "wire-formats": lambda tmp: _bytes(_wire_formats()),
    "cli-simulate": lambda tmp: _cli_bytes(
        tmp, ["simulate"], {"system.json": system_to_json(_system(), 300)}
    ),
    "cli-delay-probe": lambda tmp: _cli_bytes(
        tmp, ["delay-simulate", "--probe"], {"system.json": system_to_json(_delay_system(), 128)}
    ),
    "cli-cayley": lambda tmp: _cli_bytes(tmp, ["cayley"], {"a.json": matrix_to_json(_ginibre(5, 5))}),
    "cli-cauchy-recover": lambda tmp: _cli_bytes(
        tmp,
        ["cauchy-recover", "--k", "1", "--nodes", "32"],
        {"series.json": {"coeffs": [[[1.0, 0.0], [0.5, -0.5]], [[0.0, 2.0], [-1.5, 0.25]]]}},
    ),
    "cli-corpus": _corpus_bytes,
    "cli-scan-materialized": lambda tmp: _cli_bytes(
        tmp, ["spectrum-scan"], {"seq.json": _materialized()}
    ),
    "cli-modes-materialized": lambda tmp: _cli_bytes(
        tmp,
        ["modes", "--theta", f"{cmath.exp(1.1j).real!r},{cmath.exp(1.1j).imag!r}", "--theta", "0,1"],
        {"seq.json": _materialized()},
    ),
}

PINNED = {
    "cli-cauchy-recover": "b859ed4941e15eb9ed9e1c366a6aa9494cd63ae8361d5bbc9738e7a11cc8b31a",
    "cli-cayley": "3ab089caddb8036415641f2ca45a00f3e443f9fd3843832166076fe531c3db7c",
    "cli-delay-probe": "412ea003080878f3c74b7360ab219116823832bc89ade80e6b0df47d655c1f58",
    "cli-corpus": "466b8f5e857236860c0f33060090e4fa48ab27ce28d0f2defb0cdddfb583e211",
    "cli-modes-materialized": "5c15add289ee9acfa3c4671985697c88a17b10fc30b80286e1b6182328615ae7",
    "cli-scan-materialized": "d67de97a9c3ad34c079561e65e2204d64cdd07f0f179aa3924d559ff6470826a",
    "cli-simulate": "dcbe2ff0fedf00e72fcdf6a4c662621736a8a37e3928dcb06be4579b2d6fe896",
    "corpus-modes": "927bf2de18b04681495ddc1ad1e58925bf6ac4ea1f8f9ad4c8f23b92757d25f2",
    "corpus-vanishing": "4eb04be0597da5e4a9bd018f223aae90b271e2e9cfab162b622e89991d32c36c",
    "gelfand-diagonal": "dbf56016dd18d96d654f9de08d53140f5d8febd343cf4a0d10cc9e4fc764b6d4",
    "gelfand-jordan": "f42936afbf0357c66ba5b84321904525a7cb016cab2da0a46aaf97f1823bc3a9",
    "gelfand-nilpotent": "6bd18ae17c68c056e41e20fbc5ba7b64517e24fd4e60ee263109f950036fdc91",
    "gelfand-random-16": "e0911071fa1705cf1b799ec40e091aba1d9908f0b93c9833bfbe24ce5d320abc",
    "ktz-met": "17ef73ab5f0eec30a36d22663e1170c73510f5e9119a5642c8921ab096fc8c1d",
    "ktz-nilpotent": "25591f6e2ab9a034fd80544a7ec99aa4d5ce98c46b2dd1f0353ea71fb645caf6",
    "ktz-not-met": "48dc8bedb201d3afe62ea04ca3b468ec8c80cfc366c7f695c800ade2e8af0a83",
    "pole-order": "61b7e00f2b194ca717d70307f09d7fef8e40a73d44920acad5d8befba455fbb7",
    "power-bounded": "c7ab51d072861a42d975585a63824c5db133de737c219866aa92c4826336b8e4",
    "power-decaying": "353132577513a57b7bad38b70947d92a8808578b8277dc044764efd70c58f388",
    "power-polynomial": "2640dff5fef641dce793e2f1b1fe203baf129c64382ef8c0d2956b2fdec5dce5",
    "wire-formats": "0262e0b47927f15a6e029da02a2220c9a6425539fbf009e29c6f5f76bbae4a1f",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_keeps_pinned_bytes(name, tmp_path):
    assert hashlib.sha256(REPORTS[name](tmp_path)).hexdigest() == PINNED[name]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_strict_json(name, tmp_path):
    if name == "cli-corpus":
        _corpus_bytes(tmp_path)
        documents = [path.read_bytes() for path in sorted((tmp_path / "corpus").iterdir())]
    else:
        documents = [REPORTS[name](tmp_path)]
    for doc in documents:
        helpers.strict_json(doc)
