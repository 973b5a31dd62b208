"""Suite-wide hypothesis settings.

Every property test runs the same derandomized examples on each run, with
no example database and no per-example deadline (a builder call can take
tens of milliseconds on a loaded host). Each test sets its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("holomimo", derandomize=True, database=None, deadline=None)
settings.load_profile("holomimo")
