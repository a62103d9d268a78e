from hypothesis import settings

# One profile for every property test: a fixed example sequence, so runs are
# reproducible, and no per-example deadline, since timings vary by machine.
settings.register_profile("countstrat", derandomize=True, deadline=None)
settings.load_profile("countstrat")
