import os

# One BLAS thread, as the benchmark runs: on a busy two-core host OpenBLAS
# threading of small products made single d = 64 tests swing from 0.05 s
# to over 1 s.  Set before anything imports numpy, and only as a default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# One profile for every property test: the same examples on each run, and
# no per-example deadline, since a slow shared machine is not a failure.
settings.register_profile("seqspectrum", derandomize=True, deadline=None, database=None)
settings.load_profile("seqspectrum")
