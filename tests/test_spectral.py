"""Tests for eigenstructure analysis: ranks, containment, and the rank law."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holomimo.correlation
import holomimo.harness
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
    load_matrix,
    monte_carlo_nmse,
    rank_fraction_prediction,
    save_matrix,
    spectrum,
    subspace_containment_residual,
)
from holomimo.cli import main, preset_names, resolve_config_path
from holomimo.correlation import STRUCTURE_CHECK_ROWS
from holomimo.spectral import (
    RANK_TOLERANCE,
    _leading_pieces,
    _numerical_rank,
    _parity_blocks,
    _projection,
    _real_form,
    _shared_frame,
    _solve,
)

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
        # only the numerical rank's columns are kept
        assert basis.eigenvectors.shape == (9, basis.numerical_rank) == (9, 4)
        gram = basis.eigenvectors.conj().T @ basis.eigenvectors
        assert gram == pytest.approx(np.eye(4), abs=1e-12)

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

    @ENTRY_POINTS
    def test_rejects_non_finite_eigenvalues(self, solve):
        # Inf on the diagonal makes LAPACK return NaN eigenvalues, which pass
        # every NaN comparison of the PSD check
        entries = build_isotropic(ArrayGeometry(3, 3, 0.25, 1.0)).entries.copy()
        entries[0, 0] = entries[8, 8] = np.inf
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(NumericalError, match="non-finite"):
            solve(matrix)

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "entries",
        [[[1, 2], [0, 1]], [[1, 1j], [1j, 1]]],
        ids=["real-upper-only", "imaginary-symmetric"],
    )
    def test_rejects_a_matrix_that_is_not_hermitian(self, solve, entries):
        # LAPACK reads one triangle: unchecked, these solved to [1, 1] and [2, 0]
        entries = np.array(entries, dtype=np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="Hermitian"):
            solve(matrix)

    @ENTRY_POINTS
    @pytest.mark.parametrize("nan_at", [[(1, 1)], [(0, 2), (2, 0)]], ids=["diagonal", "mirrored"])
    def test_nan_is_reported_as_non_finite_before_lapack(self, solve, nan_at, monkeypatch):
        # a NaN never equals its mirror, so the Hermitian scan fails on it;
        # it must be named as the non-finite entry that validate() and
        # load_matrix report, and LAPACK, which can return finite eigenvalues
        # for a matrix holding a NaN, must never see it
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(*args, _solver=solver, _name=name, **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        entries = np.eye(3, dtype=np.complex128)
        for index in nan_at:
            entries[index] = np.nan
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="non-finite"):
            solve(matrix)
        assert calls == []
        for index in nan_at:
            entries[index] = 0.0 if index[0] != index[1] else 1.0
        solve(matrix)  # the spies see the finite matrix's solve: one call per parity block
        assert calls == ["eigh" if solve is eigendecompose else "eigvalsh"] * 2

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

    @pytest.mark.parametrize("which", ["container", "contained"])
    def test_ranks_are_bounded_by_the_columns_held(self, which):
        # eigendecompose keeps the numerical rank's columns, and a rank past
        # them raises, naming the rank
        g = ArrayGeometry(9, 7, 0.125, 1.0)
        iso = eigendecompose(build_isotropic(g))
        clustered = eigendecompose(build_exact_clustered(g, CLUSTERED))
        basis = iso if which == "container" else clustered
        held = basis.eigenvectors.shape[1]
        assert held == basis.numerical_rank < g.num_antennas
        at_the_bound = {f"{which}_rank": held}
        assert subspace_containment_residual(iso, clustered, **at_the_bound) >= 0.0
        with pytest.raises(ValueError, match=f"{which} rank {held + 1} outside"):
            subspace_containment_residual(iso, clustered, **{f"{which}_rank": held + 1})


def previous_solver(matrix):
    """(eigenvalues, eigenvectors, numerical rank, effective rank) as the earlier
    solver produced them: complex eigh with eigenvectors, descending, clamped."""
    values, vectors = np.linalg.eigh(matrix.entries)
    values = np.clip(values[::-1], 0.0, None)
    numerical = int(np.count_nonzero(values > RANK_TOLERANCE * values[0]))
    return values, vectors[:, ::-1].copy(), numerical, effective_rank(values)


def previous_basis(matrix):
    values, vectors, numerical, effective = previous_solver(matrix)
    return EigenBasis(
        eigenvalues=values,
        eigenvectors=vectors,
        numerical_rank=numerical,
        effective_rank=effective,
        source_trace=float(np.trace(matrix.entries).real),
    )


def assert_agrees_with_previous_solver(matrix):
    """spectrum and eigendecompose against a complex eigh recomputed here."""
    spec, basis = spectrum(matrix), eigendecompose(matrix)
    values, vectors, numerical, effective = previous_solver(matrix)
    scale, m = values[0], matrix.num_antennas
    for result in (spec, basis):
        assert (result.numerical_rank, result.effective_rank) == (numerical, effective)
        assert np.max(np.abs(result.eigenvalues - values)) <= 1e-10 * scale
    # the two entry points reach LAPACK through different routines
    assert np.max(np.abs(spec.eigenvalues - basis.eigenvalues)) <= 1e-10 * scale
    u = basis.eigenvectors
    assert u.dtype == np.complex128 and u.flags.c_contiguous
    # the top numerical-rank pairs alone: every eigenvalue dropped lies below
    # RANK_TOLERANCE * lambda_max, so the reconstruction bound still holds
    assert u.shape == (m, numerical)
    assert np.max(np.abs(u.conj().T @ u - np.eye(numerical))) <= 1e-12
    rebuilt = (u * basis.eigenvalues[:numerical]) @ u.conj().T
    assert np.max(np.abs(rebuilt - matrix.entries)) <= 1e-12 * scale
    # Projectors onto the top-r subspaces: rounding of order eps * lambda_max
    # turns a subspace by at most ~eps / (relative gap below it) (Davis-Kahan),
    # so the distance ||P_new - P_old|| = ||(I - P_new) U_old|| times that
    # gap must stay at rounding level (observed <= 2e-16).
    for rank in {numerical, effective} - {m}:
        gap = (values[rank - 1] - values[rank]) / scale
        top, old = u[:, :rank], vectors[:, :rank]
        distance = np.linalg.norm(old - top @ (top.conj().T @ old), 2)
        assert distance * gap <= 1e-14, rank


BUILDERS = {
    "isotropic": lambda c: build_isotropic(c.geometry, c.beta),
    "exact": lambda c: build_exact_clustered(c.geometry, c.scattering, c.quadrature),
    "approx": lambda c: build_approx_clustered(c.geometry, c.scattering),
}

CLUSTERED = ScatteringConfig(
    clusters=(Cluster(0.5, -0.2, 1.0),), sigma_azimuth=0.05, sigma_elevation=0.05
)
SMALL_BUILDERS = {
    "isotropic": build_isotropic,
    "exact": lambda geometry: build_exact_clustered(geometry, CLUSTERED),
    "approx": lambda geometry: build_approx_clustered(geometry, CLUSTERED),
}
SMALL_SHAPES = pytest.mark.parametrize(
    "shape", [(3, 5), (5, 5), (4, 7), (7, 3)], ids=["3x5", "5x5", "4x7", "7x3"]
)


@pytest.fixture
def lapack_operands(monkeypatch):
    """(dtype, shape) of every array handed to np.linalg.eigh or eigvalsh."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg,
            name,
            lambda a, _solver=original: seen.append((a.dtype, a.shape)) or _solver(a),
        )
    return seen


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
        if operand is np.float64:
            # one LAPACK call per parity block of the centro-symmetric matrix
            assert seen and all(dtype == np.float64 for dtype in seen)
        else:
            assert seen == [operand]
        expected = np.clip(np.linalg.eigh(entries)[0][::-1], 0.0, None)
        assert np.max(np.abs(result.eigenvalues - expected)) <= 1e-12 * expected[0]

    @ENTRY_POINTS
    def test_real_indefinite_matrix_rejected(self, solve):
        entries = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=np.complex128)
        with pytest.raises(NumericalError, match="PSD"):
            solve(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))

    @ENTRY_POINTS
    @SMALL_SHAPES
    @pytest.mark.parametrize("builder", sorted(SMALL_BUILDERS))
    def test_builder_matrices_reach_lapack_as_float64(
        self, solve, builder, shape, lapack_operands
    ):
        matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0))
        lapack_operands.clear()  # the exact builder's Gauss-Legendre rule calls eigvalsh
        solve(matrix)
        m = matrix.num_antennas
        assert lapack_operands
        assert all(dtype == np.float64 for dtype, _ in lapack_operands)
        if builder == "isotropic":
            # two parity blocks of about half the size
            assert all(size[-1] <= (m + 1) // 2 for _, size in lapack_operands)
        else:
            assert lapack_operands == [(np.float64, (m, m))]

    @SMALL_SHAPES
    def test_real_form_is_q_h_r_q(self, shape):
        # Lee's unitary Q, with the middle row and column for odd M
        entries = SMALL_BUILDERS["exact"](ArrayGeometry(*shape, 0.25, 1.0)).entries
        m = entries.shape[0]
        n, h = m // 2, m - m // 2
        exchange = np.eye(n)[::-1]
        q = np.zeros((m, m), dtype=np.complex128)
        q[:n, :n], q[:n, h:] = np.eye(n), 1j * np.eye(n)
        q[h:, :n], q[h:, h:] = exchange, -1j * exchange
        q /= math.sqrt(2.0)
        q[n:h, n:h] = 1.0
        form = _real_form(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))
        assert form.dtype == np.float64 and np.array_equal(form, form.T)
        assert np.max(np.abs(q.conj().T @ entries @ q - form)) <= 1e-14 * m

    @pytest.mark.parametrize("row", [3, STRUCTURE_CHECK_ROWS + 1], ids=["first", "last"])
    def test_mirror_test_reaches_the_last_row_block(self, row, lapack_operands):
        # M = 2 * 256 + 7: the first half of the rows spans a full and a
        # partial block; a pair broken in either takes the direct solve
        m = 2 * STRUCTURE_CHECK_ROWS + 7
        entries = np.eye(m, dtype=np.complex128)
        entries[row, row + 1] = entries[row + 1, row] = 0.5
        spectrum(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))
        assert lapack_operands == [(np.float64, (m, m))]
        entries[m - 2 - row, m - 1 - row] = entries[m - 1 - row, m - 2 - row] = 0.5
        lapack_operands.clear()
        spectrum(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))
        assert all(size[-1] < m for _, size in lapack_operands)

    def test_validate_uses_the_same_dispatch(self, lapack_operands):
        matrix = SMALL_BUILDERS["exact"](ArrayGeometry(5, 5, 0.25, 1.0))
        lapack_operands.clear()
        matrix.validate()
        assert lapack_operands == [(np.float64, (25, 25))]

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "builder, operand", [("exact", np.complex128), ("isotropic", np.float64)]
    )
    def test_one_broken_mirror_pair_takes_the_direct_solve(
        self, solve, builder, operand, lapack_operands
    ):
        # one ulp off in one Hermitian pair: still Hermitian, no longer
        # centro-Hermitian, so the matrix reaches LAPACK whole and as it is
        entries = SMALL_BUILDERS[builder](ArrayGeometry(4, 7, 0.25, 1.0)).entries.copy()
        entries[0, 1] = complex(np.nextafter(entries[0, 1].real, 2.0), entries[0, 1].imag)
        entries[1, 0] = entries[0, 1].conj()
        lapack_operands.clear()
        solve(CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL))
        assert lapack_operands == [(operand, entries.shape)]

    @ENTRY_POINTS
    @pytest.mark.parametrize("shape", [(4, 7), (5, 5)], ids=["4x7", "5x5"])
    @pytest.mark.parametrize("builder", ["isotropic", "exact"])
    def test_indefinite_centro_hermitian_matrix_rejected(self, solve, builder, shape):
        # the trace is 0 after removing the unit gain, so some eigenvalue is
        # clearly negative
        matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0))
        entries = matrix.entries - np.eye(matrix.num_antennas)
        assert np.array_equal(entries[::-1, ::-1], entries.conj())
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
    # complex solver: eigenvalues within 1e-10 lambda_max, identical ranks,
    # and eigenvectors through their projectors
    config = load_config(resolve_config_path(preset))
    for model in config.models:
        assert_agrees_with_previous_solver(BUILDERS[model](config))


@SMALL_SHAPES
@pytest.mark.parametrize("builder", ["isotropic", "exact"])
def test_odd_and_non_square_arrays_match_previous_solver(builder, shape):
    assert_agrees_with_previous_solver(SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0)))


def assert_keeps_the_numerical_rank_columns(matrix):
    """eigendecompose's eigenvectors: the unit eigenvectors of the numerical rank, C-ordered."""
    basis = eigendecompose(matrix)
    u, values = basis.eigenvectors, basis.eigenvalues
    m, r = matrix.num_antennas, basis.numerical_rank
    assert u.shape == (m, r) and u.dtype == np.complex128 and u.flags.c_contiguous
    assert r == np.count_nonzero(values > RANK_TOLERANCE * values[0])
    assert np.max(np.abs(u.conj().T @ u - np.eye(r))) <= 1e-12
    assert np.max(np.abs(matrix.entries @ u - u * values[:r])) <= 1e-12 * values[0]
    return basis


@pytest.mark.parametrize("dense", [False, True], ids=["table", "dense"])
@pytest.mark.parametrize(
    "shape", [(9, 7), (4, 7), (9, 9), (10, 10)], ids=["9x7", "4x7", "9x9", "10x10"]
)
@pytest.mark.parametrize("builder", sorted(SMALL_BUILDERS))
def test_eigenvectors_keep_only_the_numerical_rank_columns(builder, shape, dense):
    # the parity blocks (isotropic) and the real form (clustered), on odd,
    # even and non-square arrays, from the table and from a dense copy
    matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.125, 1.0))
    if dense:
        matrix = CorrelationMatrix(matrix.entries.copy(), matrix.gain, matrix.provenance)
    basis = assert_keeps_the_numerical_rank_columns(matrix)
    assert basis.numerical_rank < matrix.num_antennas


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_direct_solve_keeps_only_the_numerical_rank_columns(real, lapack_operands):
    # a rank-6 dense matrix without centro-Hermitian symmetry goes to eigh whole
    rng = np.random.default_rng(4)
    factors = rng.standard_normal((14, 6))
    if not real:
        factors = factors + 1j * rng.standard_normal((14, 6))
    entries = (factors @ factors.conj().T).astype(np.complex128)
    entries = (entries + entries.conj().T) / 2.0
    matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
    basis = assert_keeps_the_numerical_rank_columns(matrix)
    assert basis.numerical_rank == 6
    assert lapack_operands == [(np.float64 if real else np.complex128, (14, 14))]


def test_real_path_monte_carlo_agrees_with_previous_solver():
    # The real forms rotate eigenvectors within near-degenerate eigenspaces
    # and change their phases. Channel draws change with them, isotropic or
    # exact clustered truth alike, but their NMSE may move by Monte Carlo
    # error only (seeds 5-8 moved at most 0.58 of the bound for isotropic
    # truth and 0.30 for clustered truth). As the container alone, the change
    # sits far below that error (1e-5).
    geometry = ArrayGeometry(10, 10, 0.125, 1.0)
    matrix = build_isotropic(geometry)
    new, old = eigendecompose(matrix), previous_basis(matrix)
    assert new.numerical_rank == old.numerical_rank < geometry.num_antennas
    clustered_matrix = build_exact_clustered(geometry, CLUSTERED)
    clustered, clustered_old = eigendecompose(clustered_matrix), previous_basis(clustered_matrix)
    assert clustered.numerical_rank == clustered_old.numerical_rank

    def sweep(truth, container):
        return monte_carlo_nmse(
            truth,
            tuple(Estimator),
            snr=[0.1, 1.0, 10.0, 100.0],
            trials=1000,
            seed=5,
            container_subspace=container.eigenvectors[:, : container.numerical_rank],
        )

    for truth_new, truth_old, bound in (
        (new, old, 1.0),
        (clustered, clustered_old, 1.0),
        (clustered, clustered, 1e-3),
    ):
        for point_new, point_old in zip(sweep(truth_new, new), sweep(truth_old, old)):
            for estimator in Estimator:
                a, b = point_new[estimator], point_old[estimator]
                assert abs(a.nmse - b.nmse) <= bound * math.hypot(a.ci95, b.ci95), estimator


def same_bits(first, second):
    return first.shape == second.shape and np.array_equal(
        np.ascontiguousarray(first).view(np.uint64), np.ascontiguousarray(second).view(np.uint64)
    )


class TestStructureByType:
    """A builder's matrix takes its structure from its type, a dense copy from the exact scans."""

    @settings(max_examples=60)
    @example(builder="isotropic", shape=(1, 1), spacing=0.25)
    @example(builder="exact", shape=(1, 9), spacing=0.25)
    @example(builder="approx", shape=(9, 1), spacing=0.25)
    @example(builder="exact", shape=(3, 5), spacing=0.5)
    @given(
        builder=st.sampled_from(sorted(SMALL_BUILDERS)),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        spacing=st.sampled_from([0.125, 0.25, 0.5]),
    )
    def test_builder_matrix_and_dense_copy_solve_bit_for_bit(self, builder, shape, spacing):
        matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, spacing, 1.0))
        dense = CorrelationMatrix(
            matrix.entries.copy(), matrix.gain, matrix.provenance, matrix.self_check_error
        )
        scan = CorrelationMatrix._is_centro_hermitian
        with mock.patch.object(
            CorrelationMatrix, "_is_centro_hermitian", autospec=True, side_effect=scan
        ) as spy:
            results = [(spectrum(m), eigendecompose(m)) for m in (matrix, dense)]
            scanned = [call.args[0] for call in spy.call_args_list]
            matrix.validate()
            dense.validate()
        # only the dense copy is scanned, and it is found centro-Hermitian
        assert scanned == [dense, dense]
        assert scan(dense) and scan(matrix)
        (typed_spec, typed_basis), (scanned_spec, scanned_basis) = results
        for typed, dense_result in [(typed_spec, scanned_spec), (typed_basis, scanned_basis)]:
            assert same_bits(typed.eigenvalues, dense_result.eigenvalues)
            assert typed.numerical_rank == dense_result.numerical_rank
            assert typed.effective_rank == dense_result.effective_rank
            assert typed.source_trace == dense_result.source_trace
        assert same_bits(typed_basis.eigenvectors, scanned_basis.eigenvectors)

    @pytest.mark.parametrize("builder", sorted(SMALL_BUILDERS))
    def test_only_a_dense_matrix_is_scanned_for_hermitian_symmetry(self, builder, tmp_path):
        # once per dense spectrum, eigendecompose or validate(), never for a
        # builder's matrix, and never on load: the container's mirror makes
        # every off-diagonal pair Hermitian
        matrix = SMALL_BUILDERS[builder](ArrayGeometry(4, 5, 0.25, 1.0))
        dense = CorrelationMatrix(matrix.entries.copy(), matrix.gain, matrix.provenance)
        path = save_matrix(tmp_path / "matrix.hmrc", matrix)
        scan = CorrelationMatrix._checked_entries
        with mock.patch.object(
            CorrelationMatrix, "_checked_entries", autospec=True, side_effect=scan
        ) as spy:
            for check in (spectrum, eigendecompose, CorrelationMatrix.validate):
                check(matrix)
                check(dense)
            loaded = load_matrix(path)
        assert [call.args[0] for call in spy.call_args_list] == [dense, dense, dense]
        assert same_bits(loaded.entries, dense.entries)


def forbidden_expansion(geometry, offsets):
    raise AssertionError("the dense M x M matrix was formed")


def dense_copy(matrix, entries=None):
    entries = matrix.entries.copy() if entries is None else entries
    return CorrelationMatrix(entries, matrix.gain, matrix.provenance)


class TestStructureQuery:
    """CorrelationMatrix._structure: a builder answers from its table, a dense matrix is scanned."""

    @pytest.fixture(
        params=[(b, s) for b in sorted(SMALL_BUILDERS) for s in [(1, 6), (7, 1), (5, 7), (6, 6)]],
        ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}",
    )
    def matrix(self, request):
        builder, shape = request.param
        return SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0))

    def test_builder_answers_from_its_table_and_a_dense_copy_agrees(self, monkeypatch, matrix):
        expected = (not matrix._offsets.imag.any(), True)
        with monkeypatch.context() as patched:
            patched.setattr(holomimo.correlation, "_expand", forbidden_expansion)
            assert matrix._structure() == expected
        assert dense_copy(matrix)._structure() == expected

    def test_dense_matrix_that_is_not_exactly_hermitian_raises(self, matrix):
        entries = matrix.entries.copy()
        entries[0, 1] = complex(np.nextafter(entries[0, 1].real, 2.0), entries[0, 1].imag)
        with pytest.raises(ValueError, match="^matrix is not exactly Hermitian$"):
            dense_copy(matrix, entries)._structure()

    def test_dense_matrix_holding_a_nan_reports_non_finite_entries(self, matrix):
        entries = matrix.entries.copy()
        entries[0, 1] = entries[1, 0] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite entries"):
            dense_copy(matrix, entries)._structure()

    def test_one_mirror_pair_one_ulp_off_is_not_centro_hermitian(self, matrix):
        # the Hermitian pair (0, 1), (1, 0) moves; its centro mirror
        # (M - 1, M - 2), (M - 2, M - 1) does not, since M >= 6
        entries = matrix.entries.copy()
        entries[0, 1] = complex(np.nextafter(entries[0, 1].real, 2.0), entries[0, 1].imag)
        entries[1, 0] = entries[0, 1].conj()
        real = not matrix._offsets.imag.any()
        assert dense_copy(matrix, entries)._structure() == (real, False)


@pytest.mark.parametrize("shape", [(23, 23), (24, 22)], ids=["23x23", "24x22"])
def test_table_rows_and_dense_row_blocks_fill_the_same_forms(shape):
    # M = 529 and 528: the first half of the rows spans two of the dense
    # matrix's STRUCTURE_CHECK_ROWS blocks and a dozen of the builder's
    # array-row blocks, and for odd M the middle row starts a block in neither
    geometry = ArrayGeometry(*shape, 0.25, 1.0)
    exact, isotropic = SMALL_BUILDERS["exact"](geometry), build_isotropic(geometry)
    m = geometry.num_antennas
    assert STRUCTURE_CHECK_ROWS < m // 2 < 2 * STRUCTURE_CHECK_ROWS
    dense = [CorrelationMatrix(x.entries.copy(), x.gain, x.provenance) for x in (exact, isotropic)]
    assert same_bits(_real_form(exact), _real_form(dense[0]))
    n, h = m // 2, m - m // 2
    blocks = []
    for matrix in (isotropic, dense[1]):
        plus, minus = np.empty((h, h)), np.empty((n, n))
        _parity_blocks(matrix, plus, minus)
        blocks.append((plus, minus))
    assert same_bits(blocks[0][0], blocks[1][0]) and same_bits(blocks[0][1], blocks[1][1])


@settings(max_examples=60)
@example(shape=(1, 7), gain=0.1)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    gain=st.floats(1e-3, 1e3, allow_subnormal=False),
)
def test_builder_trace_is_the_trace_of_its_dense_copy(shape, gain):
    # the trace comes from the pinned gain, summed as np.trace sums the
    # diagonal: M * gain rounds differently (7 * 0.1 != 0.1 + ... + 0.1)
    matrix = build_isotropic(ArrayGeometry(*shape, 0.25, 1.0), gain)
    trace = spectrum(matrix).source_trace
    assert matrix._entries is None
    assert trace == float(np.trace(matrix.entries).real)


def three_path_solve(matrix, vectors):
    """_solve before its real-form, parity-block and direct paths became one
    sequence, kept as an oracle: each path makes its own LAPACK calls,
    descending reorder, rank cut and eigenvector write-back."""
    table = matrix._offsets
    real = not (matrix.entries if table is None else table).imag.any()
    if table is not None or matrix._is_centro_hermitian():
        return (solve_parity if real else solve_real_form)(matrix, vectors)
    entries = matrix.entries
    operand = entries.real if real else entries
    if not vectors:
        return np.linalg.eigvalsh(operand)[::-1], None
    values, columns = np.linalg.eigh(operand)
    values = values[::-1]
    kept = columns[:, ::-1][:, : _numerical_rank(values)]
    return values, np.ascontiguousarray(kept, dtype=np.complex128)


def solve_real_form(matrix, vectors):
    form = _real_form(matrix)
    if not vectors:
        return np.linalg.eigvalsh(form)[::-1], None
    values, real_vectors = np.linalg.eigh(form)
    del form
    values = values[::-1]
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    descending = real_vectors[:, ::-1][:, : _numerical_rank(values)]
    columns = np.empty(descending.shape, dtype=np.complex128)
    top, bottom = columns[:n], columns[h:]
    np.multiply(descending[:n], np.sqrt(0.5), out=top.real)
    np.multiply(descending[h:], np.sqrt(0.5), out=top.imag)
    np.multiply(descending[:n][::-1], np.sqrt(0.5), out=bottom.real)
    np.multiply(descending[h:][::-1], -np.sqrt(0.5), out=bottom.imag)
    if h > n:
        columns[n] = descending[n]
    return values, columns


def solve_parity(matrix, vectors):
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    plus, minus = np.empty((h, h)), np.empty((n, n))
    _parity_blocks(matrix, plus, minus)
    if not vectors:
        values = np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)])
        return np.sort(values)[::-1], None
    plus_values, plus_vectors = np.linalg.eigh(plus)
    minus_values, minus_vectors = np.linalg.eigh(minus)
    del plus, minus
    values = np.concatenate([plus_values, minus_values])
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    rank = _numerical_rank(values)
    position = np.argsort(order)
    columns = np.zeros((m, rank), dtype=np.complex128)
    blocks = ((plus_vectors, position[:h], 1.0), (minus_vectors, position[h:], -1.0))
    for block, targets, sign in blocks:
        kept = targets < rank
        top = block[:n, kept]
        top *= np.sqrt(0.5)
        columns.real[:n, targets[kept]] = top
        columns.real[h:, targets[kept]] = sign * top[::-1]
    if h > n:
        kept = position[:h] < rank
        columns.real[n, position[:h][kept]] = plus_vectors[n, kept]
    return values, columns


@settings(max_examples=60, deadline=None)
@example(builder="isotropic", shape=(1, 1), spacing=0.25)
@example(builder="exact", shape=(1, 8), spacing=0.25)
@example(builder="isotropic", shape=(9, 1), spacing=0.125)
@example(builder="approx", shape=(5, 7), spacing=0.5)
@example(builder="isotropic", shape=(9, 9), spacing=0.125)
@given(
    builder=st.sampled_from(sorted(SMALL_BUILDERS)),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    spacing=st.sampled_from([0.125, 0.25, 0.5]),
)
def test_one_solve_sequence_matches_the_three_paths_bit_for_bit(builder, shape, spacing):
    # the parity blocks (isotropic) and the real form (clustered) from the
    # table and from a dense copy; one ulp off in one Hermitian pair sends
    # the dense copy to the direct solve, real or complex
    matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, spacing, 1.0))
    broken = matrix.entries.copy()
    if matrix.num_antennas > 1:
        broken[0, 1] = complex(np.nextafter(broken[0, 1].real, 2.0), broken[0, 1].imag)
        broken[1, 0] = broken[0, 1].conj()
    dense = [CorrelationMatrix(e, matrix.gain, matrix.provenance) for e in (matrix.entries, broken)]
    for solved in (matrix, *dense):
        for vectors in (False, True):
            values, _, pieces = _solve(solved, vectors)
            old_values, old_columns = three_path_solve(solved, vectors)
            assert same_bits(values, old_values)
            if vectors:
                columns = eigendecompose(solved).eigenvectors
                assert columns.flags.c_contiguous and same_bits(columns, old_columns)
            else:
                assert pieces is None and old_columns is None


def forbidden_scan(matrix):
    raise AssertionError("a builder's matrix was scanned for centro-Hermitian symmetry")


@pytest.mark.parametrize("preset", ["fig1_desk", "fig4_desk"])
def test_cli_solves_builder_matrices_without_the_scan(tmp_path, monkeypatch, capsys, preset):
    commands = [["eigen-report"], ["nmse-sweep"], ["approx-validate"], ["export-matrix", "--csv"]]
    for run in ("patched", "plain"):
        with monkeypatch.context() as patched:
            if run == "patched":
                patched.setattr(CorrelationMatrix, "_is_centro_hermitian", forbidden_scan)
            for command, *flags in commands:
                assert main([command, preset, *flags, "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in (tmp_path / "plain").iterdir())
    assert len(names) >= 8
    assert names == sorted(path.name for path in (tmp_path / "patched").iterdir())
    for name in names:
        scanless, plain = tmp_path / "patched" / name, tmp_path / "plain" / name
        assert scanless.read_bytes() == plain.read_bytes(), name


def lee_unitary(m):
    """Q of Lee's real form, dense: [[I, 0, iI], [0, sqrt(2), 0], [J, 0, -iJ]] / sqrt(2)."""
    n, h = m // 2, m - m // 2
    q = np.zeros((m, m), dtype=np.complex128)
    flip = np.eye(n)[::-1]
    q[:n, :n], q[:n, h:] = np.eye(n), 1j * np.eye(n)
    q[h:, :n], q[h:, h:] = flip, -1j * flip
    if h > n:
        q[n, n] = np.sqrt(2.0)
    return q / np.sqrt(2.0)


@settings(max_examples=40, deadline=None)
@given(
    builder=st.sampled_from(sorted(SMALL_BUILDERS)),
    shape=st.sampled_from([(1, 6), (7, 1), (5, 7), (4, 6), (6, 6), (1, 1)]),
)
def test_real_columns_are_the_eigenvectors_in_their_frame(builder, shape):
    # eigenvectors = Q W: W is Lee's V for a clustered matrix, and for the
    # isotropic one the parity blocks' columns on the top and bottom rows,
    # the bottom ones times -i (the frame Q diag(I, -iI))
    matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0))
    basis = eigendecompose(matrix)
    m, r = basis.num_antennas, basis.numerical_rank
    pieces = basis._real_columns
    assert len(pieces) == (1 if matrix._offsets.imag.any() else 2)  # 1 x 1 is real
    w = np.zeros((m, r), dtype=np.complex128)
    for k, (rows, where, columns) in enumerate(pieces):
        assert columns.dtype == np.float64 and columns.flags.c_contiguous
        assert np.all(np.diff(where) > 0) and columns.shape == (rows.stop - rows.start, where.size)
        w[rows, where] = columns * (-1j if k == 1 else 1.0)
    assert sorted(np.concatenate([where for _, where, _ in pieces])) == list(range(r))
    np.testing.assert_allclose(lee_unitary(m) @ w, basis.eigenvectors, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    contained=st.sampled_from(sorted(SMALL_BUILDERS)),
    container=st.sampled_from(["isotropic", "exact"]),
    shape=st.sampled_from([(1, 6), (7, 1), (5, 7), (4, 6), (6, 6), (9, 9)]),
    fewer=st.sampled_from([1, 2, 3]),
)
def test_containment_residual_in_the_real_frame_matches_the_complex_projection(
    contained, container, shape, fewer
):
    # typed bases project with real products in their shared frame (two
    # half-height ones on the isotropic parity blocks), or, for isotropic
    # truth in a clustered container, with the complex columns. The
    # container has fewer columns than the k probes, so at least 1/k of
    # their energy leaks: far above the rounding floor of a full container
    geometry = ArrayGeometry(*shape, 0.25, 1.0)
    outer = eigendecompose(SMALL_BUILDERS[container](geometry))
    inner = eigendecompose(SMALL_BUILDERS[contained](geometry))
    k = inner.effective_rank
    rank = max(1, k - fewer)
    assert rank < k
    expected = np.linalg.norm(_projection(outer.eigenvectors[:, :rank], inner.eigenvectors[:, :k]))
    residual = subspace_containment_residual(outer, inner, container_rank=rank)
    assert residual == pytest.approx(expected**2 / k, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("contained", sorted(SMALL_BUILDERS))
def test_containment_residual_of_a_full_container_stays_at_the_rounding_floor(contained):
    # inside the isotropic numerical-rank container the leakage is rounding
    # alone, O(1e-30) here, in either frame
    geometry = ArrayGeometry(9, 9, 0.25, 1.0)
    iso = eigendecompose(build_isotropic(geometry))
    inner = eigendecompose(SMALL_BUILDERS[contained](geometry))
    k = inner.effective_rank
    container = iso.eigenvectors[:, : iso.numerical_rank]
    expected = np.linalg.norm(_projection(container, inner.eigenvectors[:, :k])) ** 2 / k
    assert abs(subspace_containment_residual(iso, inner) - expected) <= 1e-20


def eager_write_back(basis):
    """eigendecompose's eigenvectors as it wrote them out before they were
    formed on first read, kept as an oracle: each piece goes through its
    operand's map, (first row, imaginary, sign) per half, into one complex128
    array, and the identity frame's piece is copied as it is."""
    m = basis.num_antennas
    n, h = m // 2, m - m // 2
    maps = {
        "lee": [((0, False, 1.0), (h, True, -1.0))],
        "parity": [((0, False, 1.0),), ((0, False, -1.0),)],
        "identity": [None],
    }[basis._frame]
    columns = np.zeros((m, basis.numerical_rank), dtype=np.complex128)
    for (_, where, kept), halves in zip(basis._real_columns, maps):
        if halves is None:
            columns[:, where] = kept
            continue
        if h > n and kept.shape[0] > n:
            columns.real[n, where] = kept[n]
        for first, imaginary, sign in halves:
            half = kept[first : first + n] * np.sqrt(0.5)
            part = columns.imag if imaginary else columns.real
            part[:n, where] = half
            half *= sign
            part[h:, where] = half[::-1]
    return columns


@pytest.mark.parametrize("source", ["table", "dense", "broken"])
@pytest.mark.parametrize("shape", [(1, 6), (7, 1), (5, 7), (4, 6), (6, 6), (1, 1)], ids=str)
@pytest.mark.parametrize("builder", sorted(SMALL_BUILDERS))
def test_eigenvectors_formed_on_first_read_match_the_eager_write_back(builder, shape, source):
    # Lee's frame (clustered), the parity frame (isotropic) and, for a dense
    # copy with one mirror pair an ulp off, a matrix solved as it is
    matrix = SMALL_BUILDERS[builder](ArrayGeometry(*shape, 0.25, 1.0))
    entries = matrix.entries.copy()
    if source == "broken" and matrix.num_antennas > 1:
        entries[0, 1] = complex(np.nextafter(entries[0, 1].real, 2.0), entries[0, 1].imag)
        entries[1, 0] = entries[0, 1].conj()
    if source != "table":
        matrix = CorrelationMatrix(entries, matrix.gain, matrix.provenance)
    basis = eigendecompose(matrix)
    real_frame = basis._frame != "identity"
    assert real_frame == (source != "broken" or matrix.num_antennas == 1)
    assert ("eigenvectors" in vars(basis)) != real_frame
    assert basis.num_columns == basis.numerical_rank
    expected = eager_write_back(basis)
    formed = basis.eigenvectors
    assert formed.dtype == np.complex128 and formed.flags.c_contiguous
    assert same_bits(formed, expected)
    assert basis.eigenvectors is formed
    if not real_frame:
        assert formed is basis._real_columns[0][2]


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_hand_built_basis_returns_the_array_it_was_given(dtype):
    columns = np.eye(5, 3, dtype=dtype)
    hand_built = EigenBasis(
        eigenvalues=np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
        eigenvectors=columns,
        numerical_rank=3,
        effective_rank=3,
        source_trace=3.0,
    )
    assert hand_built.eigenvectors is columns
    assert hand_built._real_columns[0][2] is columns and hand_built.num_columns == 3
    replaced = dataclasses.replace(hand_built, numerical_rank=2)
    assert replaced.eigenvectors is columns and replaced.numerical_rank == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        hand_built.eigenvectors = columns
    with pytest.raises(AttributeError, match="no attribute 'eigenvector'"):
        hand_built.eigenvector


@pytest.mark.parametrize(
    "columns, rank",
    [
        (np.eye(8, 3), 5),  # fewer columns than the numerical rank
        (np.eye(6, 3), 3),  # fewer rows than eigenvalues
        (np.eye(9, 3), 3),  # more rows than eigenvalues
        (np.ones(8), 1),  # not 2-D
    ],
    ids=["too-few-columns", "too-few-rows", "too-many-rows", "1-D"],
)
def test_hand_built_basis_rejects_columns_that_do_not_fit(columns, rank):
    with pytest.raises(ValueError, match="eigenvectors must have shape"):
        EigenBasis(
            eigenvalues=np.ones(8),
            eigenvectors=columns,
            numerical_rank=rank,
            effective_rank=rank,
            source_trace=8.0,
        )


def test_replaced_basis_rejects_a_rank_past_its_columns():
    hand_built = basis_from_columns(np.eye(5, 3))
    assert dataclasses.replace(hand_built, numerical_rank=5).num_columns == 5
    narrow = dataclasses.replace(hand_built, eigenvectors=hand_built.eigenvectors[:, :3])
    with pytest.raises(ValueError, match=r"\(5, k >= 4\), got \(5, 3\)"):
        dataclasses.replace(narrow, numerical_rank=4)


def test_bases_without_a_shared_frame_leave_no_complex_columns_on_the_container():
    # a parity truth in a Lee container, and a hand-built truth with the
    # isotropic container: each call forms the container's complex columns
    # for itself alone, and gives the numbers of those columns handed over
    geometry = ArrayGeometry(5, 7, 0.25, 1.0)
    clustered = eigendecompose(SMALL_BUILDERS["exact"](geometry))
    iso = eigendecompose(build_isotropic(geometry))
    residual = subspace_containment_residual(clustered, iso)
    assert "eigenvectors" not in vars(clustered)
    leak = _projection(clustered._columns(), iso._columns()[:, : iso.effective_rank])
    assert residual == pytest.approx(np.linalg.norm(leak) ** 2 / iso.effective_rank, rel=1e-12)

    hand_built = EigenBasis(
        eigenvalues=clustered.eigenvalues,
        eigenvectors=clustered._columns(),
        numerical_rank=clustered.numerical_rank,
        effective_rank=clustered.effective_rank,
        source_trace=clustered.source_trace,
    )
    sweep = lambda container: monte_carlo_nmse(
        hand_built, (Estimator.CONSERVATIVE_RSLS,), 1.0, 5, 3, container_subspace=container
    )
    typed = sweep(iso)
    assert "eigenvectors" not in vars(iso)
    assert typed == sweep(iso._columns()[:, : iso.numerical_rank])


def concatenated_entries(outer, inner):
    """_shared_frame's projections as it formed them before each was kept
    on its container piece's rows, kept as an oracle: the parts of a truth
    piece on the container pieces it spans, stacked into one array."""
    dropped = []
    for rows, where, columns in inner:
        parts = [
            _projection(subspace, columns[part.start - rows.start : part.stop - rows.start])
            for part, _, subspace in outer
            if rows.start <= part.start and part.stop <= rows.stop
        ]
        dropped.append((where, parts[0] if len(parts) == 1 else np.concatenate(parts)))
    return dropped


def dense_solved(matrix):
    """A dense copy with one mirror pair an ulp off, solved as it is: the identity frame."""
    entries = matrix.entries.copy()
    entries[0, 1] = complex(np.nextafter(entries[0, 1].real, 2.0), entries[0, 1].imag)
    entries[1, 0] = entries[0, 1].conj()
    return eigendecompose(CorrelationMatrix(entries, matrix.gain, matrix.provenance))


@pytest.mark.parametrize("shape", [(1, 6), (7, 1), (5, 7), (4, 6)], ids=str)
@pytest.mark.parametrize(
    "truth, container, frame",
    [
        ("exact", "isotropic", "lee"),
        ("isotropic", "isotropic", "parity"),
        ("exact", "exact", "lee"),
        ("dense", "dense", "identity"),
    ],
    ids=["lee-parity", "parity-parity", "lee-lee", "identity-identity"],
)
def test_shared_frame_entries_are_the_stacked_projections_on_their_pieces(
    truth, container, frame, shape
):
    geometry = ArrayGeometry(*shape, 0.25, 1.0)
    solved = {
        "exact": lambda: eigendecompose(SMALL_BUILDERS["exact"](geometry)),
        "isotropic": lambda: eigendecompose(build_isotropic(geometry)),
        "dense": lambda: dense_solved(SMALL_BUILDERS["exact"](geometry)),
    }
    truth, container = solved[truth](), solved[container]()
    for rank in sorted({1, truth.effective_rank, truth.numerical_rank}):
        container_rank = max(1, container.numerical_rank - 1)
        shared, outer, entries = _shared_frame(container, container_rank, truth, rank)
        truth_frame, inner = _leading_pieces(truth, rank)
        assert shared == truth_frame == frame
        entries = iter(entries)
        for (rows, _, _), (where, stacked) in zip(inner, concatenated_entries(outer, inner)):
            spanned = [
                part for part, _, _ in outer if rows.start <= part.start and part.stop <= rows.stop
            ]
            own = [next(entries) for _ in spanned]
            for part, (positions, projected) in zip(spanned, own):
                assert np.array_equal(positions, where)
                assert projected.shape == (part.stop - part.start, where.size)
            assert same_bits(np.concatenate([projected for _, projected in own]), stacked)
        assert next(entries, None) is None


@pytest.mark.parametrize("preset", preset_names())
def test_cli_solver_commands_never_form_the_complex_eigenvectors(tmp_path, monkeypatch, preset):
    # the bases of nmse-sweep are used in their real frames only; eigen-report
    # and approx-validate decompose without eigenvectors
    formed, solved = [], []
    accessor = EigenBasis.__getattr__

    def forming(basis, name):
        formed.append(name)
        return accessor(basis, name)

    def recording(matrix, **kwargs):
        solved.append(eigendecompose(matrix, **kwargs))
        return solved[-1]

    monkeypatch.setattr(EigenBasis, "__getattr__", forming)
    monkeypatch.setattr(holomimo.harness, "eigendecompose", recording)
    for command in ("nmse-sweep", "eigen-report", "approx-validate"):
        assert main([command, preset, "--out", str(tmp_path)]) == 0
    bases = [basis for basis in solved if isinstance(basis, EigenBasis)]
    assert "eigenvectors" not in formed and len(bases) >= 2
    for basis in bases:
        assert "eigenvectors" not in vars(basis)
        assert all(columns.dtype == np.float64 for _, _, columns in basis._real_columns)
