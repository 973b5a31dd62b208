"""Tests for the correlation matrix builders, CMD, and the binary container.

The exact clustered builder is checked against two independent oracles: a
set of entries integrated with adaptive 2-D quadrature (frozen below), and a
direction-sampling Monte Carlo estimate that never touches a quadrature
rule.
"""

import dataclasses
import json
import math
import struct
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holomimo import (
    AccuracyError,
    ArrayGeometry,
    Cluster,
    CorrelationMatrix,
    MatrixProvenance,
    NumericalError,
    QuadratureSpec,
    ScatteringConfig,
    UnsupportedModelError,
    build_approx_clustered,
    build_exact_clustered,
    build_isotropic,
    correlation_matrix_distance,
    export_matrix_csv,
    load_config,
    load_matrix,
    quadrature_self_check,
    save_matrix,
)
from holomimo.cli import resolve_config_path
from holomimo.correlation import STRUCTURE_CHECK_ROWS

# 3 x 2 array, 0.3-wavelength spacing, directive elements, two clusters.
# The frozen entries below come from adaptive 2-D quadrature of the
# normalized mixture density against the plane-wave phase (epsrel 1e-12),
# evaluated with an implementation independent of the builders.
ORACLE_GEOMETRY = ArrayGeometry(3, 2, 0.3, 1.0)
ORACLE_SCATTERING = ScatteringConfig(
    clusters=(
        Cluster(math.radians(25), math.radians(10), 0.7),
        Cluster(math.radians(-40), math.radians(-20), 0.3),
    ),
    sigma_azimuth=math.radians(4.0),
    sigma_elevation=math.radians(3.0),
    directivity_a=1,
    directivity_b=2,
    gain=2.5,
)
ORACLE_ENTRIES = {
    (1, 0): 1.5993827811148822 + 0.7860415084392797j,
    (4, 0): 0.7327030726556029 + 1.0946973237338335j,
    (5, 2): 2.2724817544569107 + 0.24738752696879618j,
}


def single_cluster_config(sigma_deg, a=0.0, b=0.0):
    return ScatteringConfig(
        clusters=(Cluster(math.radians(30), math.radians(-10), 1.0),),
        sigma_azimuth=math.radians(sigma_deg),
        sigma_elevation=math.radians(sigma_deg),
        directivity_a=a,
        directivity_b=b,
        gain=1.0,
    )


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.nodes_azimuth == 96
        assert spec.nodes_elevation == 96
        assert spec.support_radius == 12.0
        assert spec.density_check_tol == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes_azimuth": 1},
            {"nodes_elevation": 0},
            {"support_radius": 0.0},
            {"density_check_tol": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestCorrelationMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(
                entries=np.zeros((2, 3), dtype=np.complex128),
                gain=1.0,
                provenance=MatrixProvenance.EXTERNAL,
            )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(
                entries=np.eye(2), gain=1.0, provenance=MatrixProvenance.EXTERNAL
            )

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(
                entries=np.eye(2, dtype=np.complex128),
                gain=0.0,
                provenance=MatrixProvenance.EXTERNAL,
            )

    def test_validate_catches_broken_symmetry(self):
        entries = np.eye(2, dtype=np.complex128)
        entries[0, 1] = 0.5j
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="Hermitian"):
            matrix.validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -math.inf)])
    def test_validate_rejects_non_finite_entries(self, bad):
        # NaN breaks exact symmetry too; the finite check must speak first
        entries = np.eye(2, dtype=np.complex128)
        entries[0, 1] = bad
        entries[1, 0] = np.conj(bad)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="non-finite"):
            matrix.validate()

    def test_validate_rejects_negative_diagonal(self):
        # Hermitian, finite and of trace M * gain, but one diagonal entry is negative
        entries = np.diag([-1.0, 3.0]).astype(np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="nonnegative"):
            matrix.validate()

    def test_validate_rejects_imaginary_diagonal(self):
        # trace and off-diagonal pairs are fine; a diagonal entry is not its own conjugate
        entries = np.eye(2, dtype=np.complex128)
        entries[1, 1] += 1e-3j
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="Hermitian"):
            matrix.validate()

    def test_validate_rejects_non_finite_diagonal(self):
        entries = np.diag([1.0, np.inf]).astype(np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="non-finite"):
            matrix.validate()

    @pytest.mark.parametrize("position", ["upper", "lower"])
    @pytest.mark.parametrize(
        "bad, message", [(0.25j, "Hermitian"), (complex("nan"), "non-finite")]
    )
    def test_structure_check_reaches_last_partial_block(self, position, bad, message):
        # M is not a multiple of the block height, so the last row block is
        # partial; one broken entry there (or in its mirror column) must show.
        m = 2 * STRUCTURE_CHECK_ROWS + 7
        entries = np.eye(m, dtype=np.complex128)
        last, first = m - 2, 3
        entries[(first, last) if position == "upper" else (last, first)] = bad
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match=message):
            matrix.validate()
        entries[last, first] = entries[first, last] = 0.5
        matrix.validate()

    def test_validate_catches_trace_drift(self):
        entries = np.diag([1.5, 1.5]).astype(np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="trace"):
            matrix.validate()

    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    def test_validate_requires_the_gain_on_the_diagonal(self, direction):
        # one entry 1 ulp off passes the trace check but not the diagonal one;
        # a builder's entries are read-only, so the edit goes into a dense copy
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        matrix.validate()
        dense = CorrelationMatrix(matrix.entries.copy(), matrix.gain, matrix.provenance)
        dense.validate()
        dense.entries[2, 2] = math.nextafter(matrix.gain, direction)
        with pytest.raises(ValueError, match="diagonal"):
            dense.validate()

    def test_validate_catches_indefinite_matrix(self):
        entries = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        with pytest.raises(ValueError, match="PSD"):
            matrix.validate()

    @pytest.mark.parametrize("gain", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_gain(self, gain):
        with pytest.raises(ValueError, match="finite"):
            CorrelationMatrix(np.eye(2, dtype=np.complex128), gain, MatrixProvenance.EXTERNAL)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            CorrelationMatrix(
                np.zeros((0, 0), dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL
            )

    @pytest.mark.parametrize("phase", [1.0, 1j], ids=["real", "complex"])
    def test_validate_applies_psd_tol(self, phase):
        # eigenvalues 1 + c and 1 - c, the smaller -1e-8 times the larger
        eps = 1e-8
        c = (1.0 + eps) / (1.0 - eps)
        entries = np.array([[1.0, phase * c], [np.conj(phase) * c, 1.0]], dtype=np.complex128)
        matrix = CorrelationMatrix(entries, 1.0, MatrixProvenance.EXTERNAL)
        matrix.validate(psd_tol=1e-6)
        with pytest.raises(ValueError, match="PSD") as raised:
            matrix.validate()
        assert not isinstance(raised.value, NumericalError)

    def test_validate_keeps_solver_failures_numerical(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        with pytest.raises(NumericalError, match="did not converge"):
            matrix.validate()

    def test_provenance_labels(self):
        assert MatrixProvenance.ISOTROPIC.label == "isotropic"
        assert MatrixProvenance.EXACT_CLUSTERED.label == "exact"
        assert MatrixProvenance.APPROX_CLUSTERED.label == "approx"
        assert MatrixProvenance.EXTERNAL.label == "external"


class TestIsotropic:
    def test_known_sinc_entries(self):
        g = ArrayGeometry(2, 2, 0.25, 1.0)
        matrix = build_isotropic(g, gain=2.0)
        e = matrix.entries

        def sinc(x):
            return math.sin(math.pi * x) / (math.pi * x)

        # horizontal neighbors: separation 0.25 wavelengths
        assert e[1, 0] == pytest.approx(2.0 * sinc(0.5), rel=1e-14)
        # diagonal pair: separation 0.25 * sqrt(2)
        assert e[3, 0] == pytest.approx(2.0 * sinc(0.5 * math.sqrt(2.0)), rel=1e-14)
        assert np.diagonal(e) == pytest.approx(2.0 * np.ones(4))

    def test_entries_are_real(self):
        matrix = build_isotropic(ArrayGeometry(3, 4, 0.2, 1.0))
        assert np.all(matrix.entries.imag == 0.0)

    def test_structural_invariants(self):
        matrix = build_isotropic(ArrayGeometry(4, 4, 0.25, 1.0), gain=1.7)
        matrix.validate()
        assert matrix.provenance is MatrixProvenance.ISOTROPIC
        assert matrix.self_check_error is None

    def test_gain_scales_linearly(self):
        g = ArrayGeometry(3, 3, 0.125, 1.0)
        unit = build_isotropic(g, gain=1.0)
        scaled = build_isotropic(g, gain=2.5)
        assert scaled.entries == pytest.approx(2.5 * unit.entries)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0), gain=-1.0)


class TestExactClustered:
    def test_matches_adaptive_quadrature_oracle(self):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        for (m, l), expected in ORACLE_ENTRIES.items():
            assert matrix.entries[m, l] == pytest.approx(expected, abs=1e-12)

    def test_diagonal_pinned_to_gain(self):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        assert np.all(np.diagonal(matrix.entries) == 2.5)

    @pytest.mark.parametrize("scene_seed", [1, 7, 10, 30, 69695126])
    def test_diagonal_is_gain_bit_for_bit_on_generated_scenes(self, tmp_path, scene_seed):
        # seeds 10, 30 and 69695126 put (gain / total) * total 1 ulp below
        # the gain unless the builder pins the diagonal
        raw = json.loads((resources.files("holomimo") / "presets" / "fig2_desk.json").read_text())
        raw["geometry"].update(m_h=6, m_v=6)
        raw["scattering"]["generate"]["seed"] = scene_seed
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        config = load_config(path)
        matrix = build_exact_clustered(config.geometry, config.scattering, config.quadrature)
        assert np.all(np.diagonal(matrix.entries) == config.scattering.gain)

    def test_exactly_hermitian(self):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        assert np.array_equal(matrix.entries, matrix.entries.conj().T)

    def test_structural_invariants(self):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        matrix.validate()
        assert matrix.provenance is MatrixProvenance.EXACT_CLUSTERED
        assert abs(matrix.self_check_error) < 1e-9

    def test_matches_direction_sampling_oracle(self):
        # importance-sample directions from the mixture and average the
        # plane-wave outer products; agreement is limited only by the 2e5
        # draws, not by any quadrature rule
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        rng = np.random.default_rng(321)
        draws = 200_000
        cfg = ORACLE_SCATTERING
        weights = []
        clusters = cfg.clusters
        per_cluster = [draws // len(clusters)] * len(clusters)

        def cluster_density(az, el, c):
            return (
                np.maximum(np.cos(az), 0.0) ** cfg.directivity_a
                * np.maximum(np.cos(el), 0.0) ** (cfg.directivity_b + 1.0)
                * np.exp((np.cos(2 * (az - c.azimuth)) - 1) / (4 * cfg.sigma_azimuth**2))
                * np.exp((np.cos(2 * (el - c.elevation)) - 1) / (4 * cfg.sigma_elevation**2))
            )

        i = np.arange(6) % 3
        j = np.arange(6) // 3
        accum = np.zeros((6, 6), dtype=np.complex128)
        cluster_masses = []
        for c, n in zip(clusters, per_cluster):
            az = rng.normal(c.azimuth, cfg.sigma_azimuth, n)
            el = rng.normal(c.elevation, cfg.sigma_elevation, n)
            proposal = np.exp(
                -0.5 * ((az - c.azimuth) / cfg.sigma_azimuth) ** 2
                - 0.5 * ((el - c.elevation) / cfg.sigma_elevation) ** 2
            )
            w = cluster_density(az, el, c) / proposal
            cluster_masses.append(c.power * w.mean())
            w = w / w.sum()
            phase = 2 * np.pi * 0.3 * (np.outer(np.sin(az) * np.cos(el), i) + np.outer(np.sin(el), j))
            basis = np.exp(1j * phase) * np.sqrt(w)[:, None]
            # weighted mean of a(w) a(w)^H under the cluster density
            accum += (basis.T @ basis.conj()) * cluster_masses[-1]
        estimate = 2.5 * accum / sum(cluster_masses)
        rel = np.linalg.norm(estimate - matrix.entries) / np.linalg.norm(matrix.entries)
        assert rel < 5e-3

    def test_zero_power_cluster_is_ignored(self):
        with_dead = ScatteringConfig(
            clusters=(Cluster(0.4, 0.1, 1.0), Cluster(-0.5, -0.2, 0.0)),
            sigma_azimuth=0.05,
            sigma_elevation=0.05,
        )
        without = ScatteringConfig(
            clusters=(Cluster(0.4, 0.1, 1.0),), sigma_azimuth=0.05, sigma_elevation=0.05
        )
        g = ArrayGeometry(3, 3, 0.25, 1.0)
        a = build_exact_clustered(g, with_dead)
        b = build_exact_clustered(g, without)
        assert np.array_equal(a.entries, b.entries)

    def test_single_specular_cluster_is_rank_one(self):
        # a single point scatterer makes the channel deterministic up to a
        # complex gain: R = gain * a(direction) a(direction)^H
        from holomimo import Direction, array_response

        g = ArrayGeometry(4, 3, 0.25, 1.0)
        az, el = 0.5, -0.3
        cfg = ScatteringConfig(
            clusters=(Cluster(az, el, 1.0, specular=True),),
            sigma_azimuth=0.05,
            sigma_elevation=0.05,
            gain=1.5,
        )
        matrix = build_exact_clustered(g, cfg)
        a = array_response(g, Direction(az, el))
        expected = 1.5 * np.outer(a, a.conj())
        assert matrix.entries == pytest.approx(expected, abs=1e-12)

    def test_specular_and_diffuse_mix_by_reference_mass(self):
        from holomimo.scattering import cluster_reference_masses

        g = ArrayGeometry(3, 2, 0.25, 1.0)
        sigma = 0.06
        diffuse = Cluster(0.3, 0.1, 0.6)
        point = Cluster(-0.4, -0.2, 0.4, specular=True)
        mixed = ScatteringConfig(
            clusters=(diffuse, point), sigma_azimuth=sigma, sigma_elevation=sigma
        )
        only_diffuse = ScatteringConfig(
            clusters=(diffuse,), sigma_azimuth=sigma, sigma_elevation=sigma
        )
        only_point = ScatteringConfig(
            clusters=(point,), sigma_azimuth=sigma, sigma_elevation=sigma
        )
        masses = cluster_reference_masses(mixed)
        w = masses / masses.sum()
        combined = (
            w[0] * build_exact_clustered(g, only_diffuse).entries
            + w[1] * build_exact_clustered(g, only_point).entries
        )
        got = build_exact_clustered(g, mixed).entries
        assert got == pytest.approx(combined, abs=1e-10)

    def test_under_resolved_quadrature_raises(self):
        spec = QuadratureSpec(nodes_azimuth=8, nodes_elevation=8)
        with pytest.raises(AccuracyError, match="nodes"):
            build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING, spec)

    @pytest.mark.parametrize("nodes", [96, 400])
    def test_support_radius_cut_names_its_remedy(self, nodes):
        # near the hemisphere edge the pi-periodic lobe climbs back toward the
        # far end of the window, and the default +/- 12 sigma cut drops that
        # mass at any node count; only an uncut window passes
        scattering = ScatteringConfig(
            clusters=(Cluster(1.186, 0.0, 1.0),), sigma_azimuth=0.149, sigma_elevation=0.149
        )
        spec = QuadratureSpec(nodes_azimuth=nodes, nodes_elevation=nodes)
        assert quadrature_self_check(scattering, spec)[0] == pytest.approx(-6.43e-3, rel=1e-3)
        with pytest.raises(AccuracyError, match="set quadrature.support_radius to null"):
            build_exact_clustered(ORACLE_GEOMETRY, scattering, spec)
        uncut = dataclasses.replace(spec, support_radius=None)
        matrix = build_exact_clustered(ORACLE_GEOMETRY, scattering, uncut)
        assert abs(matrix.self_check_error) <= uncut.density_check_tol

    def test_uncut_window_failure_advises_nodes_only(self):
        spec = QuadratureSpec(nodes_azimuth=8, nodes_elevation=8, support_radius=None)
        with pytest.raises(AccuracyError, match="nodes") as raised:
            build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING, spec)
        assert "support_radius" not in str(raised.value)

    @pytest.mark.parametrize("scene", ["fig4_desk", "diffuse_specular_dead"])
    def test_self_check_error_is_worst_self_check_entry(self, scene):
        # the builder and quadrature_self_check share one rule and one mass
        # routine, so the builder's number is the self-check's worst entry
        if scene == "fig4_desk":
            config = load_config(resources.files("holomimo") / "presets" / "fig4_desk.json")
            scattering, quadrature = config.scattering, config.quadrature
        else:
            scattering = ScatteringConfig(
                clusters=(
                    Cluster(0.3, 0.2, 0.6),
                    Cluster(-0.5, 0.1, 0.4, specular=True),
                    Cluster(0.1, -0.3, 0.0),
                ),
                sigma_azimuth=0.15,
                sigma_elevation=0.1,
                directivity_a=1.5,
                directivity_b=0.5,
            )
            quadrature = QuadratureSpec()
        matrix = build_exact_clustered(ORACLE_GEOMETRY, scattering, quadrature)
        errors = quadrature_self_check(scattering, quadrature)
        assert matrix.self_check_error == errors[np.argmax(np.abs(errors))]
        assert np.all(errors[[c.specular or c.power == 0 for c in scattering.clusters]] == 0)

    @settings(max_examples=25)
    @given(
        clusters=st.lists(
            st.builds(
                Cluster,
                azimuth=st.floats(-1.3, 1.3),
                elevation=st.floats(-1.3, 1.3),
                power=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                specular=st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda cs: any(c.power > 0 for c in cs)),
        sigma_azimuth=st.floats(math.radians(1.0), math.radians(15.0)),
        sigma_elevation=st.floats(math.radians(1.0), math.radians(15.0)),
        directivity_a=st.floats(0.0, 3.0),
        directivity_b=st.floats(0.0, 3.0),
    )
    def test_self_check_error_property(
        self, clusters, sigma_azimuth, sigma_elevation, directivity_a, directivity_b
    ):
        scattering = ScatteringConfig(
            clusters=tuple(clusters),
            sigma_azimuth=sigma_azimuth,
            sigma_elevation=sigma_elevation,
            directivity_a=directivity_a,
            directivity_b=directivity_b,
        )
        quadrature = QuadratureSpec(nodes_azimuth=48, nodes_elevation=48)
        errors = quadrature_self_check(scattering, quadrature)
        worst = errors[np.argmax(np.abs(errors))]
        try:
            matrix = build_exact_clustered(ArrayGeometry(2, 2, 0.25, 1.0), scattering, quadrature)
        except AccuracyError:
            assert abs(worst) > quadrature.density_check_tol
        else:
            assert matrix.self_check_error == worst

    def test_self_check_reports_per_cluster_errors(self):
        errors = quadrature_self_check(ORACLE_SCATTERING)
        assert errors.shape == (2,)
        assert np.all(np.abs(errors) < 1e-9)
        coarse = quadrature_self_check(ORACLE_SCATTERING, QuadratureSpec(8, 8))
        assert np.max(np.abs(coarse)) > 1e-3


class TestApproxClustered:
    def test_frozen_regression_entry(self):
        # pinned output of the closed form for the single-cluster setup; the
        # exact-builder counterpart is 0.7153400616602367+0.6971947081493227j,
        # 9e-4 away, which is the approximation error at 2 degrees of spread
        g = ArrayGeometry(8, 8, 0.25, 1.0)
        matrix = build_approx_clustered(g, single_cluster_config(2.0))
        assert matrix.entries[1, 0] == pytest.approx(
            0.7146829159698337 + 0.6978689057466311j, rel=1e-12
        )

    def test_diagonal_pinned_to_gain(self):
        g = ArrayGeometry(5, 4, 0.25, 1.0)
        cfg = ScatteringConfig(
            clusters=(Cluster(0.4, 0.2, 1.0),),
            sigma_azimuth=0.03,
            sigma_elevation=0.05,
            gain=3.5,
        )
        matrix = build_approx_clustered(g, cfg)
        assert np.all(np.diagonal(matrix.entries) == 3.5)
        assert np.array_equal(matrix.entries, matrix.entries.conj().T)

    def test_broadside_cluster_has_gaussian_closed_form(self):
        # for a cluster at (0, 0) with isotropic elements the approximation
        # collapses to a separable Gaussian in the antenna offsets
        g = ArrayGeometry(4, 4, 0.25, 1.0)
        sig_az, sig_el = 0.04, 0.07
        cfg = ScatteringConfig(
            clusters=(Cluster(0.0, 0.0, 1.0),),
            sigma_azimuth=sig_az,
            sigma_elevation=sig_el,
        )
        matrix = build_approx_clustered(g, cfg)
        s = g.spacing_fraction
        i = np.arange(16) % 4
        j = np.arange(16) // 4
        d_h = (i[:, None] - i[None, :]) * s
        d_v = (j[:, None] - j[None, :]) * s
        expected = np.exp(
            -0.5 * (2 * np.pi * d_h) ** 2 * sig_az**2
            - 0.5 * (2 * np.pi * d_v) ** 2 * sig_el**2
        )
        off_diagonal = ~np.eye(16, dtype=bool)
        assert matrix.entries[off_diagonal].imag == pytest.approx(np.zeros(240), abs=1e-15)
        assert matrix.entries[off_diagonal].real == pytest.approx(
            expected[off_diagonal], rel=1e-12
        )

    def test_tightness_improves_with_smaller_spreads(self):
        g = ArrayGeometry(4, 4, 0.25, 1.0)
        narrow = correlation_matrix_distance(
            build_exact_clustered(g, single_cluster_config(0.5)),
            build_approx_clustered(g, single_cluster_config(0.5)),
        )
        wide = correlation_matrix_distance(
            build_exact_clustered(g, single_cluster_config(2.0)),
            build_approx_clustered(g, single_cluster_config(2.0)),
        )
        assert narrow < wide

    def test_rejects_specular_clusters(self):
        cfg = ScatteringConfig(
            clusters=(Cluster(0.1, 0.0, 1.0, specular=True),),
            sigma_azimuth=0.05,
            sigma_elevation=0.05,
        )
        with pytest.raises(UnsupportedModelError):
            build_approx_clustered(ArrayGeometry(2, 2, 0.25, 1.0), cfg)


class TestCorrelationMatrixDistance:
    def test_identical_matrices(self):
        matrix = build_isotropic(ArrayGeometry(3, 3, 0.25, 1.0))
        assert correlation_matrix_distance(matrix, matrix) == 0.0

    def test_hand_computed_value(self):
        # tr(R1 R2) = 2, ||R1||_F = sqrt(2), ||R2||_F = 2
        first = CorrelationMatrix(
            np.eye(2, dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL
        )
        second = CorrelationMatrix(
            np.ones((2, 2), dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL
        )
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert correlation_matrix_distance(first, second) == pytest.approx(expected, rel=1e-15)

    def test_symmetry(self):
        g = ArrayGeometry(3, 3, 0.25, 1.0)
        a = build_isotropic(g)
        b = build_exact_clustered(g, single_cluster_config(5.0))
        assert correlation_matrix_distance(a, b) == pytest.approx(
            correlation_matrix_distance(b, a), rel=1e-15
        )

    def test_shape_mismatch(self):
        a = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        b = build_isotropic(ArrayGeometry(3, 2, 0.25, 1.0))
        with pytest.raises(ValueError):
            correlation_matrix_distance(a, b)

    def test_zero_matrix_rejected(self):
        zero = CorrelationMatrix(
            np.zeros((2, 2), dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL
        )
        other = build_isotropic(ArrayGeometry(2, 1, 0.25, 1.0))
        with pytest.raises(ValueError):
            correlation_matrix_distance(zero, other)


DISTANCE_BUILDERS = {
    "isotropic": lambda geometry: build_isotropic(geometry, 1.5),
    "exact": lambda geometry: build_exact_clustered(geometry, ORACLE_SCATTERING),
    "approx": lambda geometry: build_approx_clustered(geometry, ORACLE_SCATTERING),
}


def dense_distance(first, second):
    """The correlation matrix distance summed over the dense entries, as an oracle."""
    a, b = first.entries, second.entries
    return max(0.0, 1.0 - float(np.real(np.vdot(a, b))) / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestTableDistance:
    """Two builders' matrices of one geometry: the distance is read from their offset tables."""

    @settings(max_examples=80)
    @example(builders=("exact", "approx"), shape=(1, 1))
    @example(builders=("isotropic", "exact"), shape=(1, 9))
    @example(builders=("approx", "isotropic"), shape=(9, 1))
    @example(builders=("exact", "isotropic"), shape=(3, 5))
    @example(builders=("exact", "exact"), shape=(9, 9))
    @given(
        builders=st.tuples(*[st.sampled_from(sorted(DISTANCE_BUILDERS))] * 2),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    )
    def test_matches_the_dense_oracle(self, builders, shape):
        geometry = ArrayGeometry(*shape, 0.3, 1.0)
        first, second = (DISTANCE_BUILDERS[name](geometry) for name in builders)
        forward = correlation_matrix_distance(first, second)
        backward = correlation_matrix_distance(second, first)
        # neither call formed a dense matrix
        assert first._entries is None and second._entries is None
        expected = dense_distance(first, second)
        assert abs(forward - expected) <= 1e-12
        assert abs(backward - expected) <= 1e-12
        assert 0.0 <= forward <= 1.0

    def test_dense_and_builder_pair_is_summed_densely(self):
        builder = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        dense = CorrelationMatrix(builder.entries.copy(), builder.gain, MatrixProvenance.EXTERNAL)
        other = build_isotropic(ORACLE_GEOMETRY)
        forward = correlation_matrix_distance(dense, other)
        assert other._entries is not None  # read as a dense matrix
        assert forward == dense_distance(dense, other)
        assert correlation_matrix_distance(other, dense) == dense_distance(other, dense)

    def test_equal_size_but_other_geometry_is_summed_densely(self):
        wide = build_exact_clustered(ArrayGeometry(3, 2, 0.3, 1.0), ORACLE_SCATTERING)
        tall = build_approx_clustered(ArrayGeometry(2, 3, 0.3, 1.0), ORACLE_SCATTERING)
        distance = correlation_matrix_distance(wide, tall)
        assert wide._entries is not None and tall._entries is not None
        assert distance == dense_distance(wide, tall)


class TestContainerRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        path = save_matrix(tmp_path / "matrix.hmrc", matrix)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.entries, matrix.entries)
        assert loaded.gain == matrix.gain
        assert loaded.provenance is MatrixProvenance.EXACT_CLUSTERED

    def test_roundtrip_preserves_hermitian_structure(self, tmp_path):
        matrix = build_isotropic(ArrayGeometry(4, 2, 0.125, 1.0), gain=0.7)
        loaded = load_matrix(save_matrix(tmp_path / "iso.hmrc", matrix))
        assert np.array_equal(loaded.entries, loaded.entries.conj().T)
        assert np.array_equal(loaded.entries, matrix.entries)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.hmrc"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="container"):
            load_matrix(path)

    def test_rejects_truncated_payload(self, tmp_path):
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        path = save_matrix(tmp_path / "cut.hmrc", matrix)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_matrix(path)

    def test_rejects_unknown_version(self, tmp_path):
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        path = save_matrix(tmp_path / "ver.hmrc", matrix)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_matrix(path)


    # header: magic, version, M, gain (byte 12), provenance (the one byte at
    # 20); then the upper triangle as complex128 from byte 21, entry (0, 0)
    # first and (0, 1) next. Every message names the file.
    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (21 + 16, math.nan, "non-finite"),
            (21, math.nan, "non-finite"),
            (21 + 8, 1e-3, "Hermitian"),
            (12, 3.0, "trace"),
            (20, 9, "not a valid MatrixProvenance"),
        ],
        ids=["nan_entry", "nan_diagonal", "imaginary_diagonal", "tampered_gain", "provenance"],
    )
    def test_load_revalidates(self, tmp_path, offset, value, message):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        path = save_matrix(tmp_path / "matrix.hmrc", matrix)
        data = bytearray(path.read_bytes())
        struct.pack_into("<B" if offset == 20 else "<d", data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=message) as raised:
            load_matrix(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_load_rejects_negative_diagonal(self, tmp_path):
        # entry (0, 0) starts at byte 21; its real part flips sign, which
        # the diagonal check reports before the trace check sees it
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        path = save_matrix(tmp_path / "matrix.hmrc", matrix)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 21, -matrix.gain)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="nonnegative"):
            load_matrix(path)

    def test_rejects_infinite_gain_header(self, tmp_path):
        # the trace check alone would compare inf > inf, which is False
        matrix = build_isotropic(ArrayGeometry(3, 1, 0.25, 1.0))
        path = save_matrix(tmp_path / "inf.hmrc", matrix)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 12, math.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="gain") as raised:
            load_matrix(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_rejects_empty_container(self, tmp_path):
        path = tmp_path / "empty.hmrc"
        path.write_bytes(struct.pack("<4sIIdB", b"HMRC", 1, 0, 1.0, 0))
        assert path.stat().st_size == 21
        with pytest.raises(ValueError, match="empty") as raised:
            load_matrix(path)
        assert str(raised.value).startswith(f"{path}: ")


class TestCsvExport:
    def test_values_roundtrip_through_text(self, tmp_path):
        matrix = build_exact_clustered(ORACLE_GEOMETRY, ORACLE_SCATTERING)
        path = export_matrix_csv(tmp_path / "matrix.csv", matrix)
        flat = np.loadtxt(path, delimiter=",")
        assert flat.shape == (6, 12)
        # %.17g prints doubles losslessly
        assert np.array_equal(flat[:, 0::2], matrix.entries.real)
        assert np.array_equal(flat[:, 1::2], matrix.entries.imag)

    def test_header_comment(self, tmp_path):
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        path = export_matrix_csv(tmp_path / "iso.csv", matrix)
        assert path.read_text().startswith("#")


CENTRO_BUILDERS = {
    "isotropic": lambda geometry, scattering, quadrature: build_isotropic(geometry, 1.5),
    "exact": build_exact_clustered,
    "approx": lambda geometry, scattering, quadrature: build_approx_clustered(geometry, scattering),
}


@pytest.mark.parametrize("builder", sorted(CENTRO_BUILDERS))
@pytest.mark.parametrize(
    "scene", ["3x5", "5x5", "4x7", "7x3", "fig1_desk", "fig2_desk", "fig3_desk", "fig4_desk"]
)
def test_builders_are_centro_hermitian(scene, builder):
    # reversing the storage index negates both grid offsets, and every
    # builder fills negated offsets with exact conjugates: J R J = conj(R)
    if "x" in scene:
        m_h, m_v = map(int, scene.split("x"))
        args = (ArrayGeometry(m_h, m_v, 0.3, 1.0), ORACLE_SCATTERING, QuadratureSpec())
    else:
        config = load_config(resolve_config_path(scene))
        args = (config.geometry, config.scattering, config.quadrature)
    entries = CENTRO_BUILDERS[builder](*args).entries
    assert np.array_equal(entries[::-1, ::-1], entries.conj())


@pytest.mark.parametrize("builder", sorted(CENTRO_BUILDERS))
def test_builders_reject_infinite_gain(builder):
    # the isotropic builder checks its argument, the clustered builders'
    # ScatteringConfig checks its own; both before any table is evaluated
    geometry = ArrayGeometry(2, 2, 0.25, 1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        if builder == "isotropic":
            build_isotropic(geometry, math.inf)
        else:
            scattering = dataclasses.replace(ORACLE_SCATTERING, gain=math.inf)
            CENTRO_BUILDERS[builder](geometry, scattering, QuadratureSpec())
