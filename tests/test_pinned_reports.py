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

from seqspectrum.cli import main
from seqspectrum.corpus import generate_corpus
from seqspectrum.dynamics import DelaySystem, ForcingSpec
from seqspectrum.eigen import gelfand_radius_estimate, power_bounded_probe
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.resolvent import pole_order_probe
from seqspectrum.sequences import extract_modes, ktz_check, modes_plus_decay, vanishing_check
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
    forcing = ForcingSpec.geometric(0.9, direction=[1.0 - 0.5j, 0.25j])
    return DelaySystem(b, 1, [CVector([1.0, -2.0j])], forcing)


def _delay_system():
    b = CMatrix([[cmath.exp(0.9j), 0.3], [0.0, 0.4]])
    forcing = ForcingSpec.geometric(0.8, direction=[0.5j, 1.0])
    return DelaySystem(b, 2, [CVector([1.0, -0.5j]), CVector([0.25, 1.0])], forcing)


def _wire_formats():
    x = modes_plus_decay(
        [(cmath.exp(0.4j), [1.0, 0.5j]), (-1.0, [0.25, -1.0])], 64, decay=("power", 1.5), seed=3
    )
    table = ForcingSpec.custom(np.arange(12).reshape(6, 2) * (0.1 - 0.3j))
    return {
        "matrix": matrix_to_json(_ginibre(3, 3)),
        "vector": vector_to_json(CVector([1.0, -0.0, 2.5j])),
        "forcing_table": forcing_to_json(table),
        "system": system_to_json(_system(), 128),
        "descriptor": sequence_to_json(x),
        "materialized": sequence_to_json(x, prefer_descriptor=False),
    }


def _materialized():
    """A materialized envelope whose values include -0.0 parts, JSON ints
    and a subnormal, so the readers' decoding is pinned bit for bit."""
    x = modes_plus_decay(
        [(cmath.exp(1.1j), [1.0, -0.5j]), (1j, [0.25, 0.75])], 256, decay=("geometric", 0.9), seed=5
    )
    obj = sequence_to_json(x, prefer_descriptor=False)
    values = obj["values"] = obj["values"].tolist()  # lists keep the planted JSON ints
    values[0] = [[1, 0], [-2, 3]]
    values[1][0] = [-0.0, 5e-324]
    values[2][1] = [0.5, -0.0]
    values[3][0] = [-5e-324, 0]
    return {"sequence": obj}


REPORTS = {
    "gelfand-diagonal": lambda tmp: _bytes(
        gelfand_radius_estimate(CMatrix.diagonal([0.9, 0.5j, -0.3]), 64)
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
    "cli-delay-probe": "e2b3e20c56e188414b7cfe31ea62107df5f4eacb32051052910f553c3c4edc12",
    "cli-corpus": "466b8f5e857236860c0f33060090e4fa48ab27ce28d0f2defb0cdddfb583e211",
    "cli-modes-materialized": "2ba1f9ce726851869c6db1cbc16baabd7833c1460f13dacab5804f88b20b55da",
    "cli-scan-materialized": "3c0a0494d97dfdca590292ee37533b1d2b69fc779f9cfc691e11edf9a4b9ace9",
    "cli-simulate": "dcbe2ff0fedf00e72fcdf6a4c662621736a8a37e3928dcb06be4579b2d6fe896",
    "corpus-modes": "c8ca70ca3db8fff889c359cc3fe9ea3a6f75fd7f5b6739c5c16e9eab8beb091a",
    "corpus-vanishing": "e0f90d309424554e2a8911e932f5902ed8d42c9dc4f188c0f94f4395cd0ac2d2",
    "gelfand-diagonal": "47a553121c1726ed960361c9e237459d0a82d3b7ca5e02e7d123cfb6b0db5336",
    "gelfand-jordan": "cbca9abc93e3d1052b984ca6247bd2a69f81f47fca0a185c8aa5b707b6adc168",
    "gelfand-nilpotent": "2da75310a676b38f09676310c9dd1e41d361b4bdf8977f9fe4b69faf735d3646",
    "gelfand-random-16": "e69b2dd89c9d5b911fb0ff94778a6e656870ae64faffe78e9b3bf5a843a61494",
    "ktz-met": "76effef4c9043f687a9155425baa52ebe2804fe712c3e28827ce41940a64e384",
    "ktz-nilpotent": "25591f6e2ab9a034fd80544a7ec99aa4d5ce98c46b2dd1f0353ea71fb645caf6",
    "ktz-not-met": "9034e77015dedeb68d49e6f0bcbb8074a8fa18ba5011bd64631092e050dba562",
    "pole-order": "61b7e00f2b194ca717d70307f09d7fef8e40a73d44920acad5d8befba455fbb7",
    "power-bounded": "c7ab51d072861a42d975585a63824c5db133de737c219866aa92c4826336b8e4",
    "power-decaying": "353132577513a57b7bad38b70947d92a8808578b8277dc044764efd70c58f388",
    "power-polynomial": "2640dff5fef641dce793e2f1b1fe203baf129c64382ef8c0d2956b2fdec5dce5",
    "wire-formats": "0262e0b47927f15a6e029da02a2220c9a6425539fbf009e29c6f5f76bbae4a1f",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_keeps_pinned_bytes(name, tmp_path):
    assert hashlib.sha256(REPORTS[name](tmp_path)).hexdigest() == PINNED[name]
