from hypothesis import settings

# Derandomized so that the property tests draw the same examples on every
# run; no deadline, because the first call into numpy.linalg can be slow.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
