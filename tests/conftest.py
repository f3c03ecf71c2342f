from hypothesis import settings

# Property tests replay the same examples on every run and keep no example
# database, so the suite stays deterministic and writes nothing.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
