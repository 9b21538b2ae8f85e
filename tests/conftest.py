from hypothesis import settings

# One profile for every property test: the same examples on each run, and
# no per-example deadline, since a slow shared machine is not a failure.
settings.register_profile("seqspectrum", derandomize=True, deadline=None, database=None)
settings.load_profile("seqspectrum")
