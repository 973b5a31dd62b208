"""Tests for channel sampling, the four estimators, and both NMSE paths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomimo.estimation
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
    load_config,
    monte_carlo_nmse,
    observe_pilot,
    sample_channel,
)
from holomimo.cli import resolve_config_path
from holomimo.estimation import MC_BLOCK_TRIALS, _draw_block, _row_energy
from holomimo.harness import run_nmse_sweep
from holomimo.spectral import _projection


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

    @pytest.mark.parametrize("seed", [0, 5, 42, 2**32 - 1])
    @pytest.mark.parametrize("size", [0, 1, 7, 1024, 4097])
    def test_complex_normal_keeps_the_bits_of_the_complex_division(self, seed, size):
        # the draw as it was written before it stopped forming complex temporaries
        rng = np.random.default_rng(seed)
        expected = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
        drawn = complex_normal(np.random.default_rng(seed), size)
        assert drawn.dtype == np.complex128 and drawn.shape == (size,)
        assert drawn.view(np.float64).tobytes() == expected.view(np.float64).tobytes()

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


@pytest.mark.parametrize(
    "call",
    [
        lambda snr: PilotObservation(received=np.zeros(3, dtype=np.complex128), snr=snr),
        lambda snr: observe_pilot(np.zeros(3, dtype=np.complex128), snr, np.random.default_rng(0)),
        lambda snr: analytic_nmse(Estimator.MMSE, diagonal_basis([2.0, 1.0, 1.0]), snr),
        lambda snr: monte_carlo_nmse(
            diagonal_basis([2.0, 1.0, 1.0]), (Estimator.MMSE,), snr=snr, trials=2, seed=0
        ),
        lambda snr: monte_carlo_nmse(
            diagonal_basis([2.0, 1.0, 1.0]), (Estimator.LS,), snr=(1.0, snr), trials=2, seed=0
        ),
    ],
    ids=["PilotObservation", "observe_pilot", "analytic_nmse", "monte_carlo_nmse", "grid"],
)
def test_every_entry_point_rejects_an_infinite_snr(call):
    with pytest.raises(ValueError, match="snr"):
        call(math.inf)


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

    def test_rejects_empty_subspace(self):
        empty = np.zeros((self.basis.num_antennas, 0), dtype=np.complex128)
        with pytest.raises(ValueError, match="tall with at least one column"):
            estimate_rsls(self.obs, empty)
        with pytest.raises(ValueError, match="tall with at least one column"):
            estimate_conservative_rsls(self.obs, empty)


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

    def test_threads_keyword_is_removed(self):
        with pytest.raises(TypeError, match="threads"):
            monte_carlo_nmse(self.basis, (Estimator.LS,), snr=1.0, trials=10, seed=0, threads=4)

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

    def test_hand_built_basis_takes_ranks_up_to_its_columns(self):
        # M columns held, numerical rank 2: rank 3 projects onto the whole
        # space, exactly LS
        basis = diagonal_basis([2.0, 1.0, 1e-20])
        assert basis.numerical_rank == 2 and basis.eigenvectors.shape == (3, 3)
        results = monte_carlo_nmse(
            basis, (Estimator.LS, Estimator.RSLS), snr=1.0, trials=50, seed=1, rsls_rank=3
        )
        assert results[Estimator.RSLS].nmse == results[Estimator.LS].nmse

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
            monte_carlo_nmse(self.basis, (), snr=1.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="container"):
            monte_carlo_nmse(
                self.basis, (Estimator.CONSERVATIVE_RSLS,), snr=1.0, trials=10, seed=0
            )

    def test_rejects_empty_container(self):
        empty = np.zeros((self.basis.num_antennas, 0), dtype=np.complex128)
        with pytest.raises(ValueError, match="tall with at least one column"):
            monte_carlo_nmse(
                self.basis, tuple(Estimator), snr=1.0, trials=10, seed=0, container_subspace=empty
            )

    def test_gram_check_runs_on_the_container_only(self, monkeypatch):
        # the RS-LS columns come from the basis the sampler and MMSE already
        # trust; only the caller's raw container array is Gram-checked
        checked = []
        check = holomimo.estimation._check_orthonormal

        def counted(subspace):
            checked.append(subspace.shape)
            check(subspace)

        monkeypatch.setattr(holomimo.estimation, "_check_orthonormal", counted)
        kwargs = dict(snr=[1.0, 10.0], trials=10, seed=0)
        monte_carlo_nmse(self.basis, tuple(Estimator), container_subspace=self.container, **kwargs)
        assert checked == [self.container.shape]
        with pytest.raises(ValueError, match="orthonormal"):
            skewed = self.container * 1.01
            monte_carlo_nmse(self.basis, tuple(Estimator), container_subspace=skewed, **kwargs)


class TestEigenBasisContainer:
    """A container handed over as an EigenBasis: its numerical-rank columns, unchecked."""

    def setup_method(self):
        geometry = ArrayGeometry(8, 8, 0.125, 1.0)
        cfg = ScatteringConfig(
            clusters=(Cluster(0.4, -0.15, 0.7), Cluster(-0.3, 0.25, 0.3)),
            sigma_azimuth=0.06,
            sigma_elevation=0.06,
            gain=1.0,
        )
        self.clustered = eigendecompose(build_exact_clustered(geometry, cfg))
        self.iso = eigendecompose(build_isotropic(geometry))
        assert self.iso.numerical_rank < self.iso.num_antennas  # a proper subspace
        self.snrs = 10.0 ** (np.arange(-30.0, 31.0, 10.0) / 10.0)

    def spied(self, monkeypatch, basis, container):
        """The four-estimator grid for `container`, and the shapes Gram-checked."""
        checked = []
        check = holomimo.estimation._check_orthonormal

        def counted(subspace):
            checked.append(subspace.shape)
            check(subspace)

        with monkeypatch.context() as patch:
            patch.setattr(holomimo.estimation, "_check_orthonormal", counted)
            kwargs = dict(snr=self.snrs, trials=MC_BLOCK_TRIALS + 45, seed=31)
            grid = monte_carlo_nmse(basis, tuple(Estimator), container_subspace=container, **kwargs)
        return grid, checked

    @pytest.mark.parametrize("truth", ["clustered", "isotropic"])
    def test_matches_its_numerical_rank_slice_bit_for_bit(self, truth, monkeypatch):
        # with isotropic truth the container is the truth basis itself
        basis = self.clustered if truth == "clustered" else self.iso
        typed, typed_checks = self.spied(monkeypatch, basis, self.iso)
        raw = self.iso.eigenvectors[:, : self.iso.numerical_rank]
        sliced, sliced_checks = self.spied(monkeypatch, basis, raw)
        assert typed_checks == [] and sliced_checks == [raw.shape]
        assert len(typed) == len(sliced) == self.snrs.size
        for from_type, from_array in zip(typed, sliced):
            for estimator in Estimator:
                if estimator is Estimator.CONSERVATIVE_RSLS:
                    # the typed container is projected with real products in
                    # the truth's frame, the raw array with complex ones
                    close = pytest.approx(from_array[estimator].nmse, rel=1e-12, abs=0.0)
                    assert from_type[estimator].nmse == close
                    close = pytest.approx(from_array[estimator].ci95, rel=1e-12, abs=0.0)
                    assert from_type[estimator].ci95 == close
                    continue
                assert from_type[estimator].nmse == from_array[estimator].nmse
                assert from_type[estimator].ci95 == from_array[estimator].ci95

    def test_hand_built_basis_uses_its_numerical_rank_columns(self, monkeypatch):
        # M columns held, numerical rank k < M: the container is the first k
        # columns, not all M (which would project onto the whole space)
        m, k = self.clustered.num_antennas, self.iso.numerical_rank
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        values = np.concatenate([np.linspace(2.0, 1.0, k), np.full(m - k, 1e-20)])
        container = EigenBasis(
            eigenvalues=values,
            eigenvectors=q,
            numerical_rank=k,
            effective_rank=k,
            source_trace=float(values.sum()),
        )
        typed, checks = self.spied(monkeypatch, self.clustered, container)
        assert checks == []
        sliced, _ = self.spied(monkeypatch, self.clustered, q[:, :k])
        whole, _ = self.spied(monkeypatch, self.clustered, q)
        conservative = Estimator.CONSERVATIVE_RSLS
        for from_type, from_slice, from_whole in zip(typed, sliced, whole):
            assert from_type[conservative] == from_slice[conservative]
            assert from_type[conservative].nmse != from_whole[conservative].nmse


def test_gram_check_forms_one_r_by_r_array():
    # conj(P) and the Gram matrix G set the peak; G - I is formed in place,
    # so only |G - I|, half the bytes of G, follows them
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
    tracemalloc.start()
    try:
        holomimo.estimation._check_orthonormal(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * q.nbytes


def per_snr_loops(basis, estimators, snrs, trials, seed, container_subspace):
    """The Monte Carlo engine before its shared LS/RS-LS kernel, kept as an oracle.

    Same draws and projections as monte_carlo_nmse, but every estimator
    writes its errors one SNR at a time and every record is summarized in
    its own loop iteration. Returns (nmse, ci95) per estimator, per SNR.
    """
    m = basis.num_antennas
    r = basis.numerical_rank
    u1 = basis.eigenvectors[:, :r]
    scale = np.sqrt(basis.eigenvalues[:r])
    subspaces = {
        Estimator.RSLS: basis.eigenvectors[:, : basis.effective_rank],
        Estimator.CONSERVATIVE_RSLS: container_subspace,
    }
    projections = {e: (p, _projection(p, u1)) for e, p in subspaces.items()}
    errors = np.empty((snrs.size, len(estimators), trials))
    for start in range(0, trials, MC_BLOCK_TRIALS):
        block = range(start, min(start + MC_BLOCK_TRIALS, trials))
        v, noise = _draw_block(seed, block, r, m)
        a = scale * v
        rows = slice(block.start, block.stop)
        for k, estimator in enumerate(estimators):
            if estimator is Estimator.LS:
                noise_energy = _row_energy(noise)
                for s, rho in enumerate(snrs):
                    errors[s, k, rows] = noise_energy / rho
            elif estimator is Estimator.MMSE:
                a_noise = noise @ u1.conj()
                for s, rho in enumerate(snrs):
                    sqrt_rho = np.sqrt(rho)
                    shrink = rho * basis.eigenvalues[:r] / (rho * basis.eigenvalues[:r] + 1.0)
                    d = shrink / sqrt_rho * (sqrt_rho * a + a_noise) - a
                    errors[s, k, rows] = _row_energy(d)
            else:
                subspace, dropped = projections[estimator]
                residual = _row_energy(a @ dropped.T)
                noise_energy = _row_energy(noise @ subspace.conj())
                for s, rho in enumerate(snrs):
                    errors[s, k, rows] = residual + noise_energy / rho
    trace = basis.source_trace
    grid = []
    for per_snr in errors:
        results = {}
        for estimator, column in zip(estimators, per_snr):
            mean = float(column.mean())
            if trials > 1:
                spread = float(column.std(ddof=1)) / np.sqrt(trials)
            else:
                spread = float("nan")
            results[estimator] = (mean / trace, 1.96 * spread / trace)
        grid.append(results)
    return grid


class TestMonteCarloEngine:
    """The blocked, SNR-grid engine against a per-trial oracle and the per-SNR loops."""

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
        for rank in (3, self.basis.numerical_rank):
            results = monte_carlo_nmse(
                self.basis, (Estimator.RSLS,), snr=5.0, trials=150, seed=4, rsls_rank=rank
            )
            nmse, ci95 = self.oracle(5.0, 150, seed=4, rsls_rank=rank)[Estimator.RSLS]
            assert results[Estimator.RSLS].nmse == pytest.approx(nmse, rel=1e-12)
            assert results[Estimator.RSLS].ci95 == pytest.approx(ci95, rel=1e-12)

    def test_rsls_rank_is_bounded_by_the_columns_held(self):
        # the basis keeps its numerical rank's columns, and a rank past them
        # raises, naming the rank
        held = self.basis.eigenvectors.shape[1]
        assert held == self.basis.numerical_rank < self.basis.num_antennas
        with pytest.raises(ValueError, match=f"rsls rank {held + 1} outside"):
            monte_carlo_nmse(
                self.basis, (Estimator.RSLS,), snr=5.0, trials=10, seed=4, rsls_rank=held + 1
            )

    def test_grid_equals_scalar_calls_bit_for_bit(self):
        kwargs = dict(trials=301, seed=23, container_subspace=self.container)
        grid = monte_carlo_nmse(self.basis, self.estimators, snr=list(self.snrs), **kwargs)
        for snr, from_grid in zip(self.snrs, grid):
            alone = monte_carlo_nmse(self.basis, self.estimators, snr=snr, **kwargs)
            assert isinstance(alone, dict)
            assert alone == from_grid

    @pytest.mark.parametrize("container", ["raw", "typed"])
    @pytest.mark.parametrize("truth", ["hand-built", "clustered", "isotropic"])
    def test_subset_of_a_grid_sees_same_numbers(self, truth, container):
        # one truth per frame (identity, Lee's, parity), each with a raw and
        # a typed container: LS-only and conservative-only calls take no
        # U_1^H n, and every call but the conservative one takes no container
        iso = eigendecompose(build_isotropic(ArrayGeometry(6, 6, 0.25, 1.0)))
        basis = {
            "hand-built": EigenBasis(
                eigenvalues=self.basis.eigenvalues,
                eigenvectors=self.basis.eigenvectors,
                numerical_rank=self.basis.numerical_rank,
                effective_rank=self.basis.effective_rank,
                source_trace=self.basis.source_trace,
            ),
            "clustered": self.basis,
            "isotropic": iso,
        }[truth]
        subspace = self.container if container == "raw" else iso
        kwargs = dict(snr=self.snrs, trials=200, seed=8, container_subspace=subspace)
        full = monte_carlo_nmse(basis, self.estimators, **kwargs)
        for estimator in self.estimators:
            alone = monte_carlo_nmse(basis, (estimator,), **kwargs)
            for single, together in zip(alone, full):
                assert single[estimator] == together[estimator]

    @pytest.mark.parametrize("truth", ["clustered", "isotropic"])
    def test_replaced_basis_matches_its_source(self, truth):
        # dataclasses.replace reads the solved basis's complex columns and
        # builds a basis from them, whose products may run in another frame:
        # its numbers agree with the source's up to rounding
        iso = eigendecompose(build_isotropic(ArrayGeometry(6, 6, 0.25, 1.0)))
        solved = self.basis if truth == "clustered" else iso
        k = solved.effective_rank - 1
        kwargs = dict(snr=self.snrs, trials=200, seed=8, container_subspace=iso)
        replaced = monte_carlo_nmse(
            dataclasses.replace(solved, effective_rank=k), self.estimators, **kwargs
        )
        source = monte_carlo_nmse(solved, self.estimators, rsls_rank=k, **kwargs)
        for from_replaced, from_source in zip(replaced, source):
            for estimator in self.estimators:
                for field in ("nmse", "ci95"):
                    value = getattr(from_source[estimator], field)
                    close = pytest.approx(value, rel=1e-12, abs=0.0)
                    assert getattr(from_replaced[estimator], field) == close

    def test_rejects_nonpositive_snr(self):
        for snr in (0.0, -1.0, (1.0, 0.0), ()):
            with pytest.raises(ValueError, match="snr"):
                monte_carlo_nmse(self.basis, (Estimator.LS,), snr=snr, trials=10, seed=0)

    @settings(max_examples=60)
    @given(
        trials=st.sampled_from([1, 2, 127, 128, 129, 300]),
        estimators=st.permutations(list(Estimator)).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
        ),
        snrs_db=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_snr_loops(self, trials, estimators, snrs_db, seed):
        snrs = 10.0 ** (np.asarray(snrs_db) / 10.0)
        kwargs = dict(trials=trials, seed=seed, container_subspace=self.container)
        grid = monte_carlo_nmse(self.basis, estimators, snr=snrs, **kwargs)
        expected = per_snr_loops(self.basis, estimators, snrs, **kwargs)
        assert len(grid) == len(expected) == snrs.size
        for results, oracle in zip(grid, expected):
            assert list(results) == list(estimators)
            for estimator, (nmse, ci95) in oracle.items():
                record = results[estimator]
                assert type(record.nmse) is float and type(record.ci95) is float
                # the engine reads the RS-LS residual off the coordinates'
                # tail, the oracle off (I - P P^H) U_1, and it takes U_1^H n
                # as a real product in the truth's real frame, the oracle as
                # a complex one: equal in exact arithmetic
                close = estimator in (Estimator.RSLS, Estimator.MMSE)
                if close:
                    assert record.nmse == pytest.approx(nmse, rel=1e-12, abs=0.0)
                else:
                    assert record.nmse == nmse
                if trials == 1:
                    assert math.isnan(record.ci95) and math.isnan(ci95)
                elif close:
                    assert record.ci95 == pytest.approx(ci95, rel=1e-12, abs=0.0)
                else:
                    assert record.ci95 == ci95

    @pytest.mark.parametrize("which", ["one", "effective", "numerical"])
    def test_rsls_residual_is_the_tail_of_the_coordinates(self, which):
        # h = U_1 a, so projecting onto the top k columns of U_1 drops
        # U_1[:, k:] a[k:]: per trial, ||a[k:]||^2 is the residual the
        # product with (I - P P^H) U_1 gives, up to rounding
        r = self.basis.numerical_rank
        rank = {"one": 1, "effective": self.basis.effective_rank, "numerical": r}[which]
        u1 = self.basis.eigenvectors[:, :r]
        dropped = _projection(self.basis.eigenvectors[:, :rank], u1)
        v, _ = _draw_block(5, range(2 * MC_BLOCK_TRIALS + 1), r, self.basis.num_antennas)
        a = np.sqrt(self.basis.eigenvalues[:r]) * v
        tail, product = _row_energy(a[:, rank:]), _row_energy(a @ dropped.T)
        assert np.all(np.abs(tail - product) <= 1e-12 * _row_energy(a))
        assert np.all(tail > 0) if rank < r else np.all(tail == 0.0)

    def test_rsls_past_the_numerical_rank_drops_nothing(self):
        # a hand-built basis may hold more columns than its numerical rank;
        # projecting onto more than r of them keeps all of h = U_1 a, so the
        # residual is exactly 0 and each trial's error is its noise term alone
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        values = np.array([3.0, 2.0, 1.0, 1e-20, 1e-20, 1e-20])
        basis = EigenBasis(
            eigenvalues=values,
            eigenvectors=q,
            numerical_rank=3,
            effective_rank=3,
            source_trace=float(values.sum()),
        )
        v, _ = _draw_block(0, range(MC_BLOCK_TRIALS), 3, 6)
        a = np.sqrt(values[:3]) * v
        product = _row_energy(a @ _projection(q[:, :4], q[:, :3]).T)
        assert np.all(product <= 1e-12 * _row_energy(a))
        for seed in range(4):
            result = monte_carlo_nmse(
                basis, (Estimator.RSLS,), snr=2.0, trials=1, seed=seed, rsls_rank=4
            )
            _, noise = _draw_block(seed, range(1), 3, 6)
            noise_only = _row_energy(noise.conj() @ q[:, :4])[0] / 2.0
            assert result[Estimator.RSLS].nmse == noise_only / basis.source_trace


@pytest.mark.parametrize(
    "seed, trials, rank, num_antennas",
    [(0, range(3), 1, 1), (7, range(5, 9), 3, 7), (2**32 - 1, range(1000, 1002), 6, 36),
     (19, range(126, 131), 10, 35), (4, range(2), 0, 5)],
)
def test_draw_block_gives_complex_normal_bits(seed, trials, rank, num_antennas):
    # each row holds what the trial's own (seed, trial) generator gives
    # complex_normal for v and then for n, bit for bit, whatever block the
    # trial lands in
    v, n = _draw_block(seed, trials, rank, num_antennas)
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        expected_v, expected_n = complex_normal(rng, rank), complex_normal(rng, num_antennas)
        assert v[row].view(np.float64).tobytes() == expected_v.view(np.float64).tobytes()
        assert n[row].view(np.float64).tobytes() == expected_n.view(np.float64).tobytes()


REAL_FRAME_SHAPES = [(1, 6), (7, 1), (5, 7), (4, 6), (6, 6), (3, 4)]
REAL_FRAME_SCATTERING = ScatteringConfig(
    clusters=(Cluster(0.4, -0.15, 0.7), Cluster(-0.3, 0.25, 0.3)),
    sigma_azimuth=0.06,
    sigma_elevation=0.06,
    gain=1.0,
)


def real_frame_bases(shape):
    """(isotropic, clustered) eigenbases of one quarter-wavelength geometry."""
    geometry = ArrayGeometry(*shape, 0.25, 1.0)
    return (
        eigendecompose(build_isotropic(geometry)),
        eigendecompose(build_exact_clustered(geometry, REAL_FRAME_SCATTERING)),
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(REAL_FRAME_SHAPES),
    truth=st.sampled_from(["clustered", "isotropic"]),
    container_form=st.sampled_from(["basis", "array"]),
    container_cut=st.sampled_from(["numerical", "effective"]),
    snr=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
    trials=st.sampled_from([MC_BLOCK_TRIALS - 1, MC_BLOCK_TRIALS + 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_frame_engine_matches_the_public_estimators(
    shape, truth, container_form, container_cut, snr, trials, seed
):
    # Lee's frame (clustered truth) and the parity frame (isotropic truth)
    # against per-trial public estimators on the complex eigenvectors; the
    # container is the isotropic basis, handed over typed or as its columns.
    # Enough trials that ci95 is no near-cancelling difference of a few
    # errors: with 2 trials it is |e_1 - e_2|, whose relative rounding error
    # both engines, typed or raw, carry above 1e-12 in some draws.
    iso, clustered = real_frame_bases(shape)
    basis = clustered if truth == "clustered" else iso
    assert basis._real_columns is not None
    assert len(basis._real_columns) == (2 if basis is iso else 1)
    if container_cut == "numerical":
        container = iso
        columns = iso.eigenvectors[:, : iso.numerical_rank]
    else:  # a container that the channel leaks out of
        columns = iso.eigenvectors[:, : iso.effective_rank]
        container = columns
    if container_form == "array":
        container = columns
    results = monte_carlo_nmse(
        basis, tuple(Estimator), snr=snr, trials=trials, seed=seed, container_subspace=container
    )
    errors = {estimator: [] for estimator in Estimator}
    subspace = basis.eigenvectors[:, : basis.effective_rank]
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        h = sample_channel(basis, rng)
        obs = observe_pilot(h, snr, rng)
        for estimate in (
            estimate_mmse(obs, basis),
            estimate_ls(obs),
            estimate_rsls(obs, subspace),
            estimate_conservative_rsls(obs, columns),
        ):
            delta = estimate.h_hat - h
            errors[estimate.estimator].append(np.real(np.vdot(delta, delta)))
    trace = basis.source_trace
    for estimator, values in errors.items():
        nmse = np.mean(values) / trace
        ci95 = 1.96 * np.std(values, ddof=1) / np.sqrt(trials) / trace
        assert results[estimator].nmse == pytest.approx(nmse, rel=1e-12, abs=0.0)
        assert results[estimator].ci95 == pytest.approx(ci95, rel=1e-12, abs=0.0)


def test_real_valued_columns_without_a_frame_stay_in_the_identity_frame():
    # a hand-built basis and a raw container of float64 columns carry no
    # real frame: they must give their complex copies' numbers, not be read
    # as Lee or parity coordinates
    iso, _ = real_frame_bases((5, 7))
    k = iso.effective_rank

    def hand_built(vectors):
        return EigenBasis(
            eigenvalues=iso.eigenvalues,
            eigenvectors=vectors,
            numerical_rank=iso.numerical_rank,
            effective_rank=k,
            source_trace=iso.source_trace,
        )

    kwargs = dict(snr=[0.1, 10.0], trials=MC_BLOCK_TRIALS + 3, seed=5)
    grids = [
        monte_carlo_nmse(
            hand_built(vectors), tuple(Estimator), container_subspace=vectors[:, :k], **kwargs
        )
        for vectors in (iso.eigenvectors.real.copy(), iso.eigenvectors.copy())
    ]
    for real, complex_ in zip(*grids):
        for estimator in Estimator:
            close = pytest.approx(complex_[estimator].nmse, rel=1e-12, abs=0.0)
            assert real[estimator].nmse == close
            close = pytest.approx(complex_[estimator].ci95, rel=1e-12, abs=0.0)
            assert real[estimator].ci95 == close


@pytest.mark.parametrize("form", ["basis", "array"])
def test_container_of_another_array_size_is_rejected(form):
    # a solved basis's frame pieces would be cut to fit a larger truth
    small, _ = real_frame_bases((4, 6))
    _, clustered = real_frame_bases((5, 7))
    container = small if form == "basis" else small.eigenvectors[:, : small.numerical_rank]
    with pytest.raises(ValueError, match="container_subspace has 24 rows for 35 antennas"):
        monte_carlo_nmse(
            clustered, tuple(Estimator), snr=1.0, trials=3, seed=0, container_subspace=container
        )


def test_public_estimators_form_the_eigenvectors_once(monkeypatch):
    # sample_channel and estimate_mmse read the complex columns; the first
    # read forms them from the real frame's pieces, later ones reuse them
    _, basis = real_frame_bases((5, 7))
    accessor, formed = EigenBasis.__getattr__, []

    def forming(basis, name):
        formed.append(name)
        return accessor(basis, name)

    monkeypatch.setattr(EigenBasis, "__getattr__", forming)
    assert "eigenvectors" not in vars(basis)
    rng = np.random.default_rng(3)
    for _ in range(2):
        observation = observe_pilot(sample_channel(basis, rng), 10.0, rng)
        estimate_mmse(observation, basis)
    assert formed == ["eigenvectors"]
    assert vars(basis)["eigenvectors"] is basis.eigenvectors


@pytest.mark.parametrize("trials", [None, 131], ids=["fig1_desk", "131-trials"])
def test_the_block_size_moves_the_records_by_rounding_alone(trials, tmp_path, monkeypatch):
    # fig1_desk's sweep (500 trials) and a 131-trial one: both end in a
    # partial block at either size, and every trial draws the same channel
    # and noise; only the shapes of the projection GEMMs differ
    config = load_config(resolve_config_path("fig1_desk"))
    if trials is not None:
        config = dataclasses.replace(config, trials=trials)
    runs = []
    for block in (128, MC_BLOCK_TRIALS):
        monkeypatch.setattr(holomimo.estimation, "MC_BLOCK_TRIALS", block)
        runs.append(run_nmse_sweep(config, tmp_path / str(block))[0])
    assert MC_BLOCK_TRIALS == 64 and config.trials % 64 and config.trials % 128
    assert len(runs[0]) == len(config.snr_grid_db) * len(config.estimators)
    for record, reference in zip(runs[1], runs[0], strict=True):
        assert record.nmse_mc == pytest.approx(reference.nmse_mc, rel=1e-14, abs=0)
        assert record.nmse_mc_ci95 == pytest.approx(reference.nmse_mc_ci95, rel=1e-14, abs=0)
        assert dataclasses.replace(record, nmse_mc=0.0, nmse_mc_ci95=0.0) == dataclasses.replace(
            reference, nmse_mc=0.0, nmse_mc_ci95=0.0
        )
