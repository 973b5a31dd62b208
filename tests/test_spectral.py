"""Tests for eigenstructure analysis: ranks, containment, and the rank law."""

import math

import numpy as np
import pytest
import scipy.linalg

from holomimo import (
    ArrayGeometry,
    Cluster,
    CorrelationMatrix,
    EigenBasis,
    Estimator,
    MatrixProvenance,
    NumericalError,
    ScatteringConfig,
    build_approx_clustered,
    build_exact_clustered,
    build_isotropic,
    effective_rank,
    eigendecompose,
    load_config,
    monte_carlo_nmse,
    rank_fraction_prediction,
    spectrum,
    subspace_containment_residual,
)
from holomimo.cli import preset_names, resolve_config_path
from holomimo.spectral import RANK_TOLERANCE

ENTRY_POINTS = pytest.mark.parametrize(
    "solve", [spectrum, eigendecompose], ids=["spectrum", "eigendecompose"]
)


def random_psd_matrix(rng, size, rank):
    """Hermitian PSD complex matrix with the given rank and positive trace."""
    factors = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    entries = factors @ factors.conj().T
    entries = (entries + entries.conj().T) / 2.0
    return CorrelationMatrix(
        entries=entries.astype(np.complex128),
        gain=float(np.trace(entries).real / size),
        provenance=MatrixProvenance.EXTERNAL,
    )


def basis_from_columns(columns, eigenvalues=None):
    """EigenBasis wrapper around explicit orthonormal columns, for hand cases."""
    columns = np.asarray(columns, dtype=np.complex128)
    m, r = columns.shape
    full = np.zeros((m, m), dtype=np.complex128)
    full[:, :r] = columns
    values = np.zeros(m)
    values[:r] = 1.0 if eigenvalues is None else eigenvalues
    return EigenBasis(
        eigenvalues=values,
        eigenvectors=full,
        numerical_rank=r,
        effective_rank=r,
        source_trace=float(values.sum()),
    )


class TestEigendecompose:
    def test_matches_scipy_eigenvalues(self):
        matrix = random_psd_matrix(np.random.default_rng(17), 12, 5)
        basis = eigendecompose(matrix)
        reference = scipy.linalg.eigh(matrix.entries, eigvals_only=True)[::-1]
        scale = reference[0]
        assert basis.eigenvalues == pytest.approx(np.clip(reference, 0.0, None), abs=1e-12 * scale)

    def test_descending_order_and_reconstruction(self):
        matrix = random_psd_matrix(np.random.default_rng(3), 10, 10)
        basis = eigendecompose(matrix)
        assert np.all(np.diff(basis.eigenvalues) <= 0.0)
        rebuilt = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.conj().T
        assert rebuilt == pytest.approx(matrix.entries, abs=1e-10 * basis.eigenvalues[0])

    def test_eigenvectors_orthonormal(self):
        matrix = random_psd_matrix(np.random.default_rng(8), 9, 4)
        basis = eigendecompose(matrix)
        gram = basis.eigenvectors.conj().T @ basis.eigenvectors
        assert gram == pytest.approx(np.eye(9), abs=1e-12)

    def test_numerical_rank_of_rank_deficient_matrix(self):
        matrix = random_psd_matrix(np.random.default_rng(21), 14, 6)
        basis = eigendecompose(matrix)
        assert basis.numerical_rank == 6
        # the trailing eigenvalues are rounding noise below the rank cutoff
        assert np.all(basis.eigenvalues[6:] <= 1e-12 * basis.eigenvalues[0])

    def test_source_trace(self):
        matrix = build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0), gain=1.25)
        basis = eigendecompose(matrix)
        assert basis.source_trace == pytest.approx(16 * 1.25, rel=1e-14)
        assert basis.num_antennas == 16

    @ENTRY_POINTS
    def test_clamps_tiny_negative_eigenvalues(self, solve):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        values = np.array([1.0, 0.5, 0.1, -1e-13])
        entries = (q * values) @ q.conj().T
        entries = (entries + entries.conj().T) / 2.0
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        basis = solve(matrix)
        assert np.all(basis.eigenvalues >= 0.0)

    @ENTRY_POINTS
    def test_rejects_clearly_indefinite_matrix(self, solve):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        values = np.array([1.0, 0.5, 0.1, -1e-6])
        entries = (q * values) @ q.conj().T
        entries = (entries + entries.conj().T) / 2.0
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(NumericalError, match="PSD"):
            solve(matrix)

    def test_rejects_zero_matrix(self):
        matrix = CorrelationMatrix(
            np.zeros((3, 3), dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL
        )
        with pytest.raises(NumericalError):
            eigendecompose(matrix)


class TestEffectiveRank:
    def test_hand_counted_spectrum(self):
        # cumulative shares: 0.99000..., 0.99990..., 0.99999902...; the third
        # eigenvalue is the first to push past 1 - 1e-5
        values = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8])
        assert effective_rank(values) == 3

    def test_custom_complement(self):
        values = np.array([0.6, 0.4])
        assert effective_rank(values, fraction_complement=0.5) == 1
        assert effective_rank(values, fraction_complement=0.1) == 2

    def test_accepts_eigenbasis(self):
        basis = eigendecompose(build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0)))
        assert effective_rank(basis) == basis.effective_rank

    def test_full_energy_needs_every_positive_eigenvalue(self):
        values = np.array([0.5, 0.5])
        assert effective_rank(values) == 2

    @pytest.mark.parametrize("complement", [0.0, 1.0, -0.1])
    def test_complement_range_validation(self, complement):
        with pytest.raises(ValueError):
            effective_rank(np.array([1.0]), fraction_complement=complement)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.zeros(4))


class TestRankFractionPrediction:
    def test_quarter_wavelength(self):
        g = ArrayGeometry(8, 8, 0.25, 1.0)
        assert rank_fraction_prediction(g) == pytest.approx(math.pi / 16, rel=1e-15)

    def test_caps_at_one(self):
        g = ArrayGeometry(8, 8, 1.0, 1.0)
        assert rank_fraction_prediction(g) == 1.0

    def test_uses_physical_spacing_ratio(self):
        in_meters = ArrayGeometry(4, 4, spacing=0.025, wavelength=0.1)
        normalized = ArrayGeometry(4, 4, spacing=0.25, wavelength=1.0)
        assert rank_fraction_prediction(in_meters) == rank_fraction_prediction(normalized)


class TestSubspaceContainment:
    def test_hand_case_half_leakage(self):
        # probe (e1 + e3)/sqrt(2) against span{e1, e2}: half the energy leaks
        container = basis_from_columns(np.eye(3)[:, :2])
        probe = np.zeros((3, 1))
        probe[0, 0] = probe[2, 0] = 1.0 / math.sqrt(2.0)
        contained = basis_from_columns(probe)
        residual = subspace_containment_residual(container, contained)
        assert residual == pytest.approx(0.5, rel=1e-14)

    def test_self_containment_is_zero(self):
        basis = eigendecompose(build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0)))
        assert subspace_containment_residual(basis, basis) == pytest.approx(0.0, abs=1e-20)

    def test_clustered_subspace_sits_inside_isotropic_span(self):
        g = ArrayGeometry(8, 8, 0.25, 1.0)
        cfg = ScatteringConfig(
            clusters=(Cluster(0.5, -0.2, 1.0),), sigma_azimuth=0.05, sigma_elevation=0.05
        )
        iso = eigendecompose(build_isotropic(g))
        clustered = eigendecompose(build_exact_clustered(g, cfg))
        assert subspace_containment_residual(iso, clustered) < 1e-10

    def test_rank_overrides(self):
        container = basis_from_columns(np.eye(4))
        probe = basis_from_columns(np.eye(4)[:, 3:4])
        # e4 is fully outside span{e1} and fully inside span{e1..e4}
        assert subspace_containment_residual(
            container, probe, container_rank=1
        ) == pytest.approx(1.0, rel=1e-14)
        assert subspace_containment_residual(
            container, probe, container_rank=4
        ) == pytest.approx(0.0, abs=1e-20)

    def test_dimension_mismatch(self):
        a = basis_from_columns(np.eye(3)[:, :1])
        b = basis_from_columns(np.eye(4)[:, :1])
        with pytest.raises(ValueError):
            subspace_containment_residual(a, b)

    @pytest.mark.parametrize("kwargs", [{"container_rank": 0}, {"contained_rank": 5}])
    def test_rank_range_validation(self, kwargs):
        basis = basis_from_columns(np.eye(4)[:, :2])
        with pytest.raises(ValueError):
            subspace_containment_residual(basis, basis, **kwargs)


def previous_solver(matrix):
    """(eigenvalues, eigenvectors, numerical rank, effective rank) as the earlier
    solver produced them: complex eigh with eigenvectors, descending, clamped."""
    values, vectors = np.linalg.eigh(matrix.entries)
    values = np.clip(values[::-1], 0.0, None)
    numerical = int(np.count_nonzero(values > RANK_TOLERANCE * values[0]))
    return values, vectors[:, ::-1].copy(), numerical, effective_rank(values)


BUILDERS = {
    "isotropic": lambda c: build_isotropic(c.geometry, c.beta),
    "exact": lambda c: build_exact_clustered(c.geometry, c.scattering, c.quadrature),
    "approx": lambda c: build_approx_clustered(c.geometry, c.scattering),
}


class TestRealPath:
    def test_isotropic_eigenvectors_are_complex_orthonormal_and_reconstruct(self):
        matrix = build_isotropic(ArrayGeometry(8, 8, 0.25, 1.0))
        basis = eigendecompose(matrix)
        vectors = basis.eigenvectors
        assert vectors.dtype == np.complex128 and vectors.flags.c_contiguous
        assert not vectors.imag.any()
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(64))) <= 1e-12
        rebuilt = (vectors * basis.eigenvalues) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - matrix.entries)) <= 1e-12

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "imaginary, operand", [(0.0, np.float64), (1e-300, np.complex128)], ids=["real", "tiny"]
    )
    def test_any_nonzero_imaginary_part_keeps_complex_arithmetic(
        self, solve, imaginary, operand, monkeypatch
    ):
        entries = build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0)).entries.copy()
        entries[0, 5] += 1j * imaginary
        entries[5, 0] -= 1j * imaginary
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        seen = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, _solver=original: seen.append(a.dtype) or _solver(a)
            )
        result = solve(matrix)
        monkeypatch.undo()
        assert seen == [operand]
        expected = np.clip(np.linalg.eigh(entries)[0][::-1], 0.0, None)
        assert np.max(np.abs(result.eigenvalues - expected)) <= 1e-12 * expected[0]

    @ENTRY_POINTS
    def test_real_indefinite_matrix_rejected(self, solve):
        entries = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=np.complex128)
        with pytest.raises(NumericalError, match="PSD"):
            solve(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))

    def test_spectrum_has_no_eigenvectors(self):
        matrix = build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0))
        spec = spectrum(matrix)
        assert not isinstance(spec, EigenBasis)
        assert effective_rank(spec) == spec.effective_rank
        assert not isinstance(eigendecompose(matrix, vectors=False), EigenBasis)


@pytest.mark.parametrize("preset", preset_names())
def test_presets_match_previous_solver(preset):
    # spectrum and eigendecompose agree with each other and with the earlier
    # complex solver within 1e-10 lambda_max, with identical ranks
    config = load_config(resolve_config_path(preset))
    for model in config.models:
        matrix = BUILDERS[model](config)
        spec, basis = spectrum(matrix), eigendecompose(matrix)
        values, _, numerical, effective = previous_solver(matrix)
        assert (spec.numerical_rank, spec.effective_rank) == (numerical, effective), model
        assert (basis.numerical_rank, basis.effective_rank) == (numerical, effective), model
        assert np.max(np.abs(spec.eigenvalues - basis.eigenvalues)) <= 1e-10 * values[0]
        assert np.max(np.abs(spec.eigenvalues - values)) <= 1e-10 * values[0]


def test_real_path_monte_carlo_agrees_with_previous_solver():
    # The real path rotates eigenvectors within near-degenerate eigenspaces.
    # Isotropic-truth channel draws change with them, but their NMSE may move
    # by Monte Carlo error only (seeds 5-8 moved at most 0.36 of the bound).
    # As the container alone, the change sits far below that error (1e-5).
    geometry = ArrayGeometry(10, 10, 0.125, 1.0)
    matrix = build_isotropic(geometry)
    new = eigendecompose(matrix)
    values, vectors, numerical, effective = previous_solver(matrix)
    old = EigenBasis(
        eigenvalues=values,
        eigenvectors=vectors,
        numerical_rank=numerical,
        effective_rank=effective,
        source_trace=new.source_trace,
    )
    assert new.numerical_rank == old.numerical_rank < geometry.num_antennas
    clustered = eigendecompose(
        build_exact_clustered(
            geometry,
            ScatteringConfig(
                clusters=(Cluster(0.5, -0.2, 1.0),), sigma_azimuth=0.05, sigma_elevation=0.05
            ),
        )
    )

    def sweep(truth, container):
        return monte_carlo_nmse(
            truth,
            tuple(Estimator),
            snr=[0.1, 1.0, 10.0, 100.0],
            trials=1000,
            seed=5,
            container_subspace=container.eigenvectors[:, : container.numerical_rank],
        )

    for truth_new, truth_old, bound in ((new, old, 1.0), (clustered, clustered, 1e-3)):
        for point_new, point_old in zip(sweep(truth_new, new), sweep(truth_old, old)):
            for estimator in Estimator:
                a, b = point_new[estimator], point_old[estimator]
                assert abs(a.nmse - b.nmse) <= bound * math.hypot(a.ci95, b.ci95), estimator
