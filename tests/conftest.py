"""Suite-wide hypothesis settings and shared fixtures.

Every property test runs the same derandomized examples on each run, with
no example database and no per-example deadline (a builder call can take
tens of milliseconds on a loaded host). Each test sets its own
`max_examples`.
"""

import pytest
from hypothesis import settings

import holomimo.scattering

settings.register_profile("holomimo", derandomize=True, database=None, deadline=None)
settings.load_profile("holomimo")


@pytest.fixture
def interval_guard(monkeypatch):
    """Fail any reference-integral round handed more than MAX_INTERVALS intervals.

    Without the cap a lobe too narrow to resolve bisects into millions of
    intervals and exhausts memory; under this guard such a run fails at
    once instead.
    """
    cap = holomimo.scattering.MAX_INTERVALS
    evaluate = holomimo.scattering._gauss_pair

    def guarded(integrand, lo, hi):
        assert lo.size <= cap, f"{lo.size} intervals in one round, above the cap {cap}"
        return evaluate(integrand, lo, hi)

    monkeypatch.setattr(holomimo.scattering, "_gauss_pair", guarded)
