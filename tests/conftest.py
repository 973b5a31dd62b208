"""Suite-wide hypothesis settings and shared fixtures.

Every property test runs the same derandomized examples on each run, with
no example database and no per-example deadline (a builder call can take
tens of milliseconds on a loaded host). Each test sets its own
`max_examples`.

Hypothesis also draws some values from a pool of constants it reads out of
the source of every non-test module loaded so far (`_get_local_constants`
in hypothesis.internal.conjecture.providers, 6.155). Which modules those are
depends on what the run has imported, a single file or the whole suite
with perfbench's modules, and the pool changes with any constant edited
in them, so the same test could draw different examples. The pool is
emptied here, which leaves each test's examples to the test alone. That
name is private: where it is gone, or the provider no longer reads it, this
module fails to import and the suite stops, rather than run on examples
that depend on what else it loaded.
"""

import inspect

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers

import holomimo.scattering

settings.register_profile("holomimo", derandomize=True, database=None, deadline=None)
settings.load_profile("holomimo")


def _empty_local_constants():
    """Hypothesis's pool of constants from loaded modules, with no constant in it."""
    if not (
        hasattr(providers, "_get_local_constants")
        and hasattr(providers, "Constants")
        and "_get_local_constants"
        in inspect.getsource(providers.HypothesisProvider._local_constants.func)
    ):
        raise RuntimeError(
            "hypothesis no longer draws from providers._get_local_constants(): "
            "tests/conftest.py cannot empty its pool of constants from loaded modules"
        )
    empty = providers.Constants()
    providers._get_local_constants = lambda: empty


_empty_local_constants()


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
