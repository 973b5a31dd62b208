"""Tests for channel sampling, the four estimators, and both NMSE paths."""

import math

import numpy as np
import pytest

from holomimo import (
    ArrayGeometry,
    Cluster,
    EigenBasis,
    Estimator,
    OracleInvalidError,
    PilotObservation,
    ScatteringConfig,
    analytic_nmse,
    build_exact_clustered,
    build_isotropic,
    complex_normal,
    eigendecompose,
    estimate_conservative_rsls,
    estimate_ls,
    estimate_mmse,
    estimate_rsls,
    monte_carlo_nmse,
    observe_pilot,
    sample_channel,
)
from holomimo.estimation import MC_BLOCK_TRIALS


def clustered_basis():
    g = ArrayGeometry(4, 4, 0.25, 1.0)
    cfg = ScatteringConfig(
        clusters=(Cluster(0.4, -0.15, 0.7), Cluster(-0.3, 0.25, 0.3)),
        sigma_azimuth=0.06,
        sigma_elevation=0.06,
        gain=1.0,
    )
    return eigendecompose(build_exact_clustered(g, cfg))


def diagonal_basis(eigenvalues):
    """EigenBasis of a diagonal matrix, for hand-checkable oracles."""
    values = np.asarray(eigenvalues, dtype=float)
    m = values.size
    return EigenBasis(
        eigenvalues=values,
        eigenvectors=np.eye(m, dtype=np.complex128),
        numerical_rank=int(np.count_nonzero(values > 1e-12 * values[0])),
        effective_rank=m,
        source_trace=float(values.sum()),
    )


def mmse_by_direct_solve(observation, basis):
    """sqrt(snr) R (snr R + I)^-1 y by an explicit M x M solve."""
    snr = observation.snr
    full = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.conj().T
    solved = np.linalg.solve(snr * full + np.eye(basis.num_antennas), observation.received)
    return np.sqrt(snr) * (full @ solved)


class TestSampling:
    def test_complex_normal_unit_variance(self):
        rng = np.random.default_rng(0)
        z = complex_normal(rng, 200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=5e-3)
        assert np.abs(z.mean()) < 5e-3

    def test_complex_normal_reproducible(self):
        a = complex_normal(np.random.default_rng(42), 16)
        b = complex_normal(np.random.default_rng(42), 16)
        assert np.array_equal(a, b)

    def test_sample_channel_covariance(self):
        basis = clustered_basis()
        rng = np.random.default_rng(7)
        draws = np.stack([sample_channel(basis, rng) for _ in range(20_000)])
        empirical = draws.T @ draws.conj() / draws.shape[0]
        truth = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.conj().T
        scale = np.linalg.norm(truth)
        assert np.linalg.norm(empirical - truth) / scale < 0.05

    def test_observe_pilot_composition(self):
        basis = clustered_basis()
        h = sample_channel(basis, np.random.default_rng(1))
        # drawing the noise with a twin generator reproduces the observation
        obs = observe_pilot(h, 4.0, np.random.default_rng(2))
        noise = complex_normal(np.random.default_rng(2), h.shape[0])
        assert np.array_equal(obs.received, 2.0 * h + noise)
        assert obs.snr == 4.0

    def test_observe_pilot_rejects_bad_snr(self):
        with pytest.raises(ValueError):
            observe_pilot(np.zeros(4, dtype=np.complex128), 0.0, np.random.default_rng(0))

    def test_pilot_observation_validation(self):
        with pytest.raises(ValueError):
            PilotObservation(received=np.zeros((2, 2), dtype=np.complex128), snr=1.0)
        with pytest.raises(ValueError):
            PilotObservation(received=np.zeros(2, dtype=np.complex128), snr=-1.0)


class TestEstimators:
    def setup_method(self):
        self.basis = clustered_basis()
        rng = np.random.default_rng(33)
        h = sample_channel(self.basis, rng)
        self.obs = observe_pilot(h, 10.0, rng)

    def test_mmse_eigenpath_equals_direct_solve(self):
        fast = estimate_mmse(self.obs, self.basis)
        direct = mmse_by_direct_solve(self.obs, self.basis)
        scale = np.linalg.norm(direct)
        assert np.linalg.norm(fast.h_hat - direct) / scale < 1e-10
        assert fast.estimator is Estimator.MMSE

    def test_ls_is_scaled_observation(self):
        estimate = estimate_ls(self.obs)
        assert np.array_equal(estimate.h_hat, self.obs.received / math.sqrt(10.0))
        assert estimate.estimator is Estimator.LS

    def test_rsls_projects_the_ls_estimate(self):
        r = self.basis.effective_rank
        subspace = self.basis.eigenvectors[:, :r]
        estimate = estimate_rsls(self.obs, subspace)
        ls = estimate_ls(self.obs).h_hat
        expected = subspace @ (subspace.conj().T @ ls)
        assert estimate.h_hat == pytest.approx(expected, abs=1e-14)
        assert estimate.estimator is Estimator.RSLS

    def test_rsls_is_idempotent(self):
        subspace = self.basis.eigenvectors[:, : self.basis.effective_rank]
        once = estimate_rsls(self.obs, subspace).h_hat
        again = subspace @ (subspace.conj().T @ once)
        assert again == pytest.approx(once, abs=1e-14)

    def test_rsls_keeps_in_span_observations(self):
        subspace = self.basis.eigenvectors[:, :3]
        y = subspace @ np.array([1.0 + 2.0j, -0.5j, 0.25])
        obs = PilotObservation(received=y, snr=1.0)
        estimate = estimate_rsls(obs, subspace)
        assert estimate.h_hat == pytest.approx(y, abs=1e-14)

    def test_conservative_rsls_uses_container_and_tag(self):
        container = self.basis.eigenvectors  # full orthonormal basis
        estimate = estimate_conservative_rsls(self.obs, container)
        ls = estimate_ls(self.obs).h_hat
        # projecting onto the whole space is the LS estimate again
        assert estimate.h_hat == pytest.approx(ls, abs=1e-13)
        assert estimate.estimator is Estimator.CONSERVATIVE_RSLS

    def test_rejects_non_orthonormal_subspace(self):
        skewed = self.basis.eigenvectors[:, :3] * 1.01
        with pytest.raises(ValueError, match="orthonormal"):
            estimate_rsls(self.obs, skewed)

    def test_rejects_wide_subspace(self):
        wide = self.basis.eigenvectors[:3, :]
        with pytest.raises(ValueError, match="tall"):
            estimate_rsls(self.obs, wide)


class TestAnalyticNmse:
    def test_mmse_hand_value(self):
        # eigenvalues (2, 1, 1) at snr 1: (2/3 + 1/2 + 1/2) / 4 = 5/12
        basis = diagonal_basis([2.0, 1.0, 1.0])
        assert analytic_nmse(Estimator.MMSE, basis, 1.0) == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_mmse_tends_to_zero_with_snr(self):
        basis = clustered_basis()
        low = analytic_nmse(Estimator.MMSE, basis, 1.0)
        high = analytic_nmse(Estimator.MMSE, basis, 1e4)
        assert high < low / 100.0

    def test_ls_value(self):
        basis = diagonal_basis([2.0, 1.0, 1.0])
        assert analytic_nmse(Estimator.LS, basis, 2.0) == pytest.approx(3.0 / 8.0, rel=1e-15)

    def test_rsls_defaults_to_effective_rank(self):
        basis = clustered_basis()
        by_default = analytic_nmse(Estimator.RSLS, basis, 5.0)
        explicit = analytic_nmse(
            Estimator.RSLS, basis, 5.0, subspace_rank=basis.effective_rank
        )
        assert by_default == explicit

    def test_rsls_rank_scaling(self):
        basis = diagonal_basis([1.0, 1.0, 1.0, 1.0])
        half = analytic_nmse(Estimator.RSLS, basis, 1.0, subspace_rank=2)
        full = analytic_nmse(Estimator.RSLS, basis, 1.0, subspace_rank=4)
        assert full == pytest.approx(2.0 * half, rel=1e-15)

    def test_conservative_needs_rank(self):
        basis = clustered_basis()
        with pytest.raises(ValueError, match="rank"):
            analytic_nmse(Estimator.CONSERVATIVE_RSLS, basis, 1.0)

    def test_conservative_gates_on_containment(self):
        basis = clustered_basis()
        value = analytic_nmse(
            Estimator.CONSERVATIVE_RSLS, basis, 1.0, subspace_rank=8,
            containment_residual=1e-9,
        )
        assert value == pytest.approx(8.0 / basis.source_trace, rel=1e-12)
        with pytest.raises(OracleInvalidError, match="containment"):
            analytic_nmse(
                Estimator.CONSERVATIVE_RSLS, basis, 1.0, subspace_rank=8,
                containment_residual=1e-3,
            )

    def test_snr_and_rank_validation(self):
        basis = clustered_basis()
        with pytest.raises(ValueError):
            analytic_nmse(Estimator.MMSE, basis, 0.0)
        with pytest.raises(ValueError):
            analytic_nmse(Estimator.RSLS, basis, 1.0, subspace_rank=0)
        with pytest.raises(ValueError):
            analytic_nmse(Estimator.RSLS, basis, 1.0, subspace_rank=17)


class TestMonteCarloNmse:
    def setup_method(self):
        self.basis = clustered_basis()
        self.container = eigendecompose(
            build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0))
        ).eigenvectors

    def test_tracks_analytic_oracles(self):
        estimators = (Estimator.MMSE, Estimator.LS, Estimator.RSLS)
        results = monte_carlo_nmse(self.basis, estimators, snr=2.0, trials=6000, seed=11)
        for estimator in estimators:
            analytic = analytic_nmse(estimator, self.basis, 2.0)
            assert results[estimator].nmse == pytest.approx(analytic, rel=0.05)
            assert results[estimator].trials == 6000

    def test_thread_count_does_not_change_results(self):
        estimators = (Estimator.MMSE, Estimator.LS)
        serial = monte_carlo_nmse(self.basis, estimators, snr=1.0, trials=300, seed=5)
        threaded = monte_carlo_nmse(
            self.basis, estimators, snr=1.0, trials=300, seed=5, threads=4
        )
        for estimator in estimators:
            assert serial[estimator].nmse == threaded[estimator].nmse
            assert serial[estimator].ci95 == threaded[estimator].ci95

    def test_estimator_subset_sees_same_randomness(self):
        alone = monte_carlo_nmse(self.basis, (Estimator.LS,), snr=1.0, trials=200, seed=9)
        together = monte_carlo_nmse(
            self.basis, (Estimator.MMSE, Estimator.LS), snr=1.0, trials=200, seed=9
        )
        assert alone[Estimator.LS].nmse == together[Estimator.LS].nmse

    def test_full_rank_container_matches_ls_exactly(self):
        results = monte_carlo_nmse(
            self.basis,
            (Estimator.LS, Estimator.CONSERVATIVE_RSLS),
            snr=1.0,
            trials=100,
            seed=3,
            container_subspace=self.container,
        )
        ls = results[Estimator.LS].nmse
        conservative = results[Estimator.CONSERVATIVE_RSLS].nmse
        assert conservative == pytest.approx(ls, rel=1e-12)

    def test_single_trial_has_no_interval(self):
        results = monte_carlo_nmse(self.basis, (Estimator.LS,), snr=1.0, trials=1, seed=0)
        assert math.isnan(results[Estimator.LS].ci95)

    def test_rsls_rank_override(self):
        narrow = monte_carlo_nmse(
            self.basis, (Estimator.RSLS,), snr=1.0, trials=500, seed=2, rsls_rank=2
        )
        wide = monte_carlo_nmse(
            self.basis, (Estimator.RSLS,), snr=1.0, trials=500, seed=2, rsls_rank=16
        )
        assert narrow[Estimator.RSLS].nmse < wide[Estimator.RSLS].nmse

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_nmse(self.basis, (Estimator.LS,), snr=1.0, trials=0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_nmse(self.basis, (Estimator.LS,), snr=1.0, trials=10, seed=0, threads=0)
        with pytest.raises(ValueError):
            monte_carlo_nmse(self.basis, (), snr=1.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="container"):
            monte_carlo_nmse(
                self.basis, (Estimator.CONSERVATIVE_RSLS,), snr=1.0, trials=10, seed=0
            )


class TestMonteCarloEngine:
    """The blocked, SNR-grid engine against a per-trial oracle."""

    def setup_method(self):
        geometry = ArrayGeometry(6, 6, 0.25, 1.0)
        cfg = ScatteringConfig(
            clusters=(Cluster(0.4, -0.15, 0.7), Cluster(-0.3, 0.25, 0.3)),
            sigma_azimuth=0.06,
            sigma_elevation=0.06,
            gain=1.0,
        )
        self.basis = eigendecompose(build_exact_clustered(geometry, cfg))
        iso = eigendecompose(build_isotropic(geometry))
        # a rank-deficient container, so the channel leaks out of it a little
        self.container = iso.eigenvectors[:, : iso.effective_rank]
        self.estimators = tuple(Estimator)
        self.snrs = (0.1, 1.0, 10.0, 1000.0)

    def oracle(self, snr, trials, seed, rsls_rank=None):
        """NMSE from the public estimators, one trial at a time."""
        rank = self.basis.effective_rank if rsls_rank is None else rsls_rank
        subspace = self.basis.eigenvectors[:, :rank]
        errors = {estimator: [] for estimator in self.estimators}
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial])
            h = sample_channel(self.basis, rng)
            obs = observe_pilot(h, snr, rng)
            estimates = (
                estimate_mmse(obs, self.basis),
                estimate_ls(obs),
                estimate_rsls(obs, subspace),
                estimate_conservative_rsls(obs, self.container),
            )
            for estimate in estimates:
                delta = estimate.h_hat - h
                errors[estimate.estimator].append(np.real(np.vdot(delta, delta)))
        trace = self.basis.source_trace
        return {
            estimator: (
                np.mean(values) / trace,
                1.96 * np.std(values, ddof=1) / np.sqrt(trials) / trace,
            )
            for estimator, values in errors.items()
        }

    def test_matches_per_trial_oracle(self):
        trials = 301
        assert trials % MC_BLOCK_TRIALS != 0
        grid = monte_carlo_nmse(
            self.basis,
            self.estimators,
            snr=self.snrs,
            trials=trials,
            seed=17,
            container_subspace=self.container,
        )
        assert len(grid) == len(self.snrs)
        for snr, results in zip(self.snrs, grid):
            expected = self.oracle(snr, trials, seed=17)
            for estimator in self.estimators:
                nmse, ci95 = expected[estimator]
                assert results[estimator].nmse == pytest.approx(nmse, rel=1e-12)
                assert results[estimator].ci95 == pytest.approx(ci95, rel=1e-12)
                assert results[estimator].trials == trials

    def test_rsls_rank_override_matches_oracle(self):
        for rank in (3, self.basis.numerical_rank + 2):
            results = monte_carlo_nmse(
                self.basis, (Estimator.RSLS,), snr=5.0, trials=150, seed=4, rsls_rank=rank
            )
            nmse, ci95 = self.oracle(5.0, 150, seed=4, rsls_rank=rank)[Estimator.RSLS]
            assert results[Estimator.RSLS].nmse == pytest.approx(nmse, rel=1e-12)
            assert results[Estimator.RSLS].ci95 == pytest.approx(ci95, rel=1e-12)

    def test_grid_equals_scalar_calls_bit_for_bit(self):
        kwargs = dict(trials=301, seed=23, container_subspace=self.container)
        grid = monte_carlo_nmse(self.basis, self.estimators, snr=list(self.snrs), **kwargs)
        for snr, from_grid in zip(self.snrs, grid):
            alone = monte_carlo_nmse(self.basis, self.estimators, snr=snr, **kwargs)
            assert isinstance(alone, dict)
            assert alone == from_grid

    def test_subset_of_a_grid_sees_same_numbers(self):
        kwargs = dict(snr=self.snrs, trials=200, seed=8, container_subspace=self.container)
        full = monte_carlo_nmse(self.basis, self.estimators, **kwargs)
        for estimator in self.estimators:
            alone = monte_carlo_nmse(self.basis, (estimator,), **kwargs)
            for single, together in zip(alone, full):
                assert single[estimator] == together[estimator]

    def test_rejects_nonpositive_snr(self):
        for snr in (0.0, -1.0, (1.0, 0.0), ()):
            with pytest.raises(ValueError, match="snr"):
                monte_carlo_nmse(self.basis, (Estimator.LS,), snr=snr, trials=10, seed=0)
