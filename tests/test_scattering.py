"""Tests for the angular scattering densities and the cluster generator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import holomimo.scattering
from holomimo import (
    ArrayGeometry,
    Cluster,
    Direction,
    NumericalError,
    ScatteringConfig,
    build_exact_clustered,
    directivity_gain,
    generate_clusters,
    isotropic_density,
    normalization_constant,
    unnormalized_cluster_density,
)
from holomimo.scattering import (
    _clamped_cos_power,
    azimuth_profile,
    cluster_reference_masses,
    deviation_window,
    elevation_profile,
    peak_relative_lobe,
)


def two_cluster_config():
    """Directive two-cluster mixture reused by the mass and density tests."""
    return ScatteringConfig(
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


class TestCluster:
    def test_fields(self):
        c = Cluster(azimuth=0.3, elevation=-0.2, power=0.5)
        assert (c.azimuth, c.elevation, c.power, c.specular) == (0.3, -0.2, 0.5, False)

    @pytest.mark.parametrize("az", [math.pi / 2, -math.pi / 2, 2.0])
    def test_azimuth_must_be_strictly_inside_hemisphere(self, az):
        with pytest.raises(ValueError):
            Cluster(az, 0.0, 1.0)

    def test_elevation_must_be_strictly_inside_hemisphere(self):
        with pytest.raises(ValueError):
            Cluster(0.0, math.pi / 2, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0.0, 0.0, -0.1)

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, power):
        # +inf passed a bare `power >= 0`, and both builders then failed late
        # with RuntimeWarnings and "offset table has non-finite values"
        with pytest.raises(ValueError, match="finite"):
            Cluster(0.1, 0.1, power)


class TestScatteringConfig:
    def test_requires_clusters(self):
        with pytest.raises(ValueError):
            ScatteringConfig(clusters=(), sigma_azimuth=0.1, sigma_elevation=0.1)

    def test_requires_positive_total_power(self):
        with pytest.raises(ValueError):
            ScatteringConfig(
                clusters=(Cluster(0.0, 0.0, 0.0),), sigma_azimuth=0.1, sigma_elevation=0.1
            )

    @pytest.mark.parametrize("kwargs", [{"sigma_azimuth": 0.0}, {"sigma_elevation": -0.1}])
    def test_requires_positive_spreads(self, kwargs):
        base = {"sigma_azimuth": 0.1, "sigma_elevation": 0.1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            ScatteringConfig(clusters=(Cluster(0.0, 0.0, 1.0),), **base)

    def test_rejects_negative_directivity(self):
        with pytest.raises(ValueError):
            ScatteringConfig(
                clusters=(Cluster(0.0, 0.0, 1.0),),
                sigma_azimuth=0.1,
                sigma_elevation=0.1,
                directivity_a=-1.0,
            )

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            ScatteringConfig(
                clusters=(Cluster(0.0, 0.0, 1.0),),
                sigma_azimuth=0.1,
                sigma_elevation=0.1,
                gain=0.0,
            )

    @pytest.mark.parametrize("axis", ["directivity_a", "directivity_b"])
    @pytest.mark.parametrize("exponent", [math.inf, math.nan])
    def test_rejects_non_finite_directivity(self, axis, exponent):
        # NaN passed a bare `exponent < 0` test; the exact builder then failed
        # late on a non-finite integrand, and an infinite exponent as a zero
        # reference mass that advised widening the spread
        with pytest.raises(ValueError, match="finite"):
            ScatteringConfig(
                clusters=(Cluster(0.0, 0.0, 1.0),),
                sigma_azimuth=0.1,
                sigma_elevation=0.1,
                **{axis: exponent},
            )

    @pytest.mark.parametrize("gain", [math.inf, math.nan])
    def test_rejects_non_finite_gain(self, gain):
        # +inf passed a bare `gain > 0`, and the builders then failed late
        # with a RuntimeWarning and NumericalError instead of at the argument
        with pytest.raises(ValueError, match="finite and positive"):
            ScatteringConfig(
                clusters=(Cluster(0.0, 0.0, 1.0),),
                sigma_azimuth=0.1,
                sigma_elevation=0.1,
                gain=gain,
            )

    def test_has_specular(self):
        diffuse = Cluster(0.0, 0.0, 1.0)
        point = Cluster(0.1, 0.1, 1.0, specular=True)
        cfg = ScatteringConfig(clusters=(diffuse, point), sigma_azimuth=0.1, sigma_elevation=0.1)
        assert cfg.has_specular
        cfg = ScatteringConfig(clusters=(diffuse,), sigma_azimuth=0.1, sigma_elevation=0.1)
        assert not cfg.has_specular


class TestIsotropicDensity:
    def test_value(self):
        assert isotropic_density(Direction(0.3, 0.4)) == pytest.approx(
            math.cos(0.4) / (2 * math.pi)
        )

    def test_integrates_to_one_over_hemisphere(self):
        total, _ = integrate.dblquad(
            lambda az, el: isotropic_density(Direction(az, el)),
            -math.pi / 2,
            math.pi / 2,
            -math.pi / 2,
            math.pi / 2,
            epsabs=1e-12,
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestLobeAndProfiles:
    def test_peak_relative_lobe_is_one_at_zero(self):
        assert peak_relative_lobe(0.0, 0.05) == 1.0

    def test_peak_relative_lobe_formula(self):
        sigma = 0.07
        x = 0.11
        assert peak_relative_lobe(x, sigma) == pytest.approx(
            math.exp((math.cos(2 * x) - 1) / (4 * sigma**2))
        )

    def test_lobe_is_even_and_decreasing(self):
        sigma = 0.05
        x = np.linspace(0.0, 0.5, 7)
        forward = peak_relative_lobe(x, sigma)
        assert peak_relative_lobe(-x, sigma) == pytest.approx(forward)
        assert np.all(np.diff(forward) < 0)

    def test_lobe_survives_tiny_spreads(self):
        # the peak-referenced form must not overflow below ~1.5 degrees
        value = peak_relative_lobe(0.001, math.radians(0.1))
        assert 0.0 < value < 1.0

    def test_azimuth_profile_peak_value(self):
        cfg = two_cluster_config()
        # at zero deviation only the directivity factor cos^a remains
        assert azimuth_profile(cfg, 0, 0.0) == pytest.approx(math.cos(math.radians(25)) ** 1)

    def test_elevation_profile_peak_value(self):
        cfg = two_cluster_config()
        # elevation carries the extra solid-angle cosine: exponent b + 1
        assert elevation_profile(cfg, 1, 0.0) == pytest.approx(
            math.cos(math.radians(-20)) ** 3
        )

    def test_profiles_vanish_outside_hemisphere(self):
        cfg = two_cluster_config()
        # deviation pushing the absolute angle past pi/2
        assert azimuth_profile(cfg, 0, 1.4) == 0.0
        assert elevation_profile(cfg, 0, -1.8) == 0.0


class TestUnnormalizedDensity:
    def test_matches_independent_evaluation(self):
        cfg = two_cluster_config()
        dev_az, dev_el = 0.02, -0.015
        sig_az, sig_el = cfg.sigma_azimuth, cfg.sigma_elevation
        az = math.radians(25) + dev_az
        el = math.radians(10) + dev_el
        expected = (
            0.7
            * math.cos(az) ** 1
            * math.cos(el) ** 3
            * math.exp(math.cos(2 * dev_az) / (4 * sig_az**2))
            * math.exp(math.cos(2 * dev_el) / (4 * sig_el**2))
        )
        got = unnormalized_cluster_density(cfg, 0, dev_az, dev_el)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_specular_cluster_has_no_density(self):
        cfg = ScatteringConfig(
            clusters=(Cluster(0.1, 0.0, 1.0, specular=True),),
            sigma_azimuth=0.1,
            sigma_elevation=0.1,
        )
        with pytest.raises(ValueError):
            unnormalized_cluster_density(cfg, 0, 0.0, 0.0)


class TestDeviationWindow:
    def test_hemisphere_clipping(self):
        lo, hi = deviation_window(nominal=1.0, sigma=0.5, support_radius=None)
        assert (lo, hi) == pytest.approx((-math.pi / 2 - 1.0, math.pi / 2 - 1.0))

    def test_support_truncation(self):
        lo, hi = deviation_window(nominal=0.0, sigma=0.01, support_radius=12.0)
        assert (lo, hi) == pytest.approx((-0.12, 0.12))

    def test_truncation_never_exceeds_hemisphere(self):
        # both edges stay inside the visible hemisphere around the nominal angle
        lo, hi = deviation_window(nominal=1.5, sigma=1.0, support_radius=12.0)
        assert hi == pytest.approx(math.pi / 2 - 1.5)
        assert lo == pytest.approx(-math.pi / 2 - 1.5)


class TestReferenceMasses:
    def test_total_mass_matches_adaptive_2d_reference(self):
        # frozen reference: adaptive 2-D quadrature of the peak-referenced
        # mixture density over the hemisphere, evaluated independently
        cfg = two_cluster_config()
        masses = cluster_reference_masses(cfg)
        assert masses.shape == (2,)
        assert float(masses.sum()) == pytest.approx(0.018254858411500378, rel=1e-9)

    def test_zero_power_cluster_contributes_nothing(self):
        cfg = ScatteringConfig(
            clusters=(Cluster(0.2, 0.1, 1.0), Cluster(-0.3, 0.0, 0.0)),
            sigma_azimuth=0.08,
            sigma_elevation=0.08,
        )
        masses = cluster_reference_masses(cfg)
        assert masses[1] == 0.0
        assert masses[0] > 0.0

    def test_specular_mass_uses_point_evaluation(self):
        sigma = 0.09
        cfg = ScatteringConfig(
            clusters=(Cluster(0.3, -0.1, 0.8, specular=True),),
            sigma_azimuth=sigma,
            sigma_elevation=sigma,
            directivity_a=2.0,
            directivity_b=1.0,
        )
        width, _ = integrate.quad(
            lambda x: math.exp((math.cos(2 * x) - 1) / (4 * sigma**2)),
            -math.pi / 2,
            math.pi / 2,
            points=[0.0],
            epsabs=0.0,
            epsrel=1e-12,
        )
        expected = 0.8 * math.cos(0.3) ** 2 * math.cos(-0.1) ** 2 * width * width
        assert cluster_reference_masses(cfg)[0] == pytest.approx(expected, rel=1e-10)


def edge_weighted_axis_mass(nominal, power, sigma):
    """Integral of cos(nominal + x)**power times the lobe over the hemisphere window.

    Near either edge of the window, cos(nominal + x)**power vanishes like the
    distance to that edge to the power `power`. QUADPACK's algebraic end-point
    weight (`weight="alg"`) takes that factor out, and quad integrates the
    smooth rest, split at the lobe peak. Plain quad misjudges this end-point
    behaviour for tiny fractional powers: at power 6.1e-5 and a 19 degree
    spread it missed by 6e-11 relative, with its own error estimate at 1e-8.
    """
    lo, hi = deviation_window(nominal, sigma, None)

    def smooth(x, edges):
        angle = nominal + x
        # cos(angle) / ((pi/2 + angle)(pi/2 - angle)) -> 1/pi at either edge
        gap = (math.pi / 2 + angle) * (math.pi / 2 - angle)
        ratio = math.cos(angle) / gap if gap > 0.0 else 1.0 / math.pi
        return (ratio * edges) ** power * float(peak_relative_lobe(x, sigma))

    def piece(a, b, weights, edges):
        value, _ = integrate.quad(
            lambda x: smooth(x, edges(x)),
            a,
            b,
            weight="alg",
            wvar=weights,
            limit=400,
            epsabs=0.0,
            epsrel=1e-12,
        )
        return value

    # [lo, 0] carries the lower edge as its weight, [0, hi] the upper one;
    # the other edge's distance is smooth on each piece
    return piece(lo, 0.0, (power, 0.0), lambda x: hi - x) + piece(
        0.0, hi, (0.0, power), lambda x: x - lo
    )


def quad_reference_masses(config):
    """Oracle: the reference masses by scipy's adaptive quad.

    Specular lobe areas are plain quad, as computed before; each diffuse
    axis factor is edge_weighted_axis_mass.
    """

    def quad(integrand, lo, hi):
        value, _ = integrate.quad(
            lambda x: float(integrand(x)),
            lo,
            hi,
            points=[0.0] if lo < 0.0 < hi else None,
            limit=400,
            epsabs=0.0,
            epsrel=1e-12,
        )
        return value

    masses = np.zeros(len(config.clusters))
    for n, cluster in enumerate(config.clusters):
        if cluster.power == 0.0:
            continue
        if cluster.specular:
            areas = [
                quad(lambda x, s=sigma: peak_relative_lobe(x, s), -math.pi / 2, math.pi / 2)
                for sigma in (config.sigma_azimuth, config.sigma_elevation)
            ]
            directivity = float(
                _clamped_cos_power(np.asarray(cluster.azimuth), config.directivity_a)
            ) * float(_clamped_cos_power(np.asarray(cluster.elevation), config.directivity_b + 1))
            masses[n] = cluster.power * directivity * areas[0] * areas[1]
            continue
        az = edge_weighted_axis_mass(cluster.azimuth, config.directivity_a, config.sigma_azimuth)
        el = edge_weighted_axis_mass(
            cluster.elevation, config.directivity_b + 1.0, config.sigma_elevation
        )
        masses[n] = cluster.power * az * el
    return masses


# Nominal angles up to 89.5 degrees put the hemisphere edge inside the lobe.
nominal_degrees = st.floats(-89.5, 89.5)
spread_degrees = st.floats(0.5, 60.0)
exponents = st.floats(0.0, 3.7)


@st.composite
def cluster_scenes(draw, specular):
    count = draw(st.integers(1, 3))
    clusters = tuple(
        Cluster(
            math.radians(draw(nominal_degrees)),
            math.radians(draw(nominal_degrees)),
            draw(st.floats(0.05, 1.0)),
            specular=specular and (n == 0 or draw(st.booleans())),
        )
        for n in range(count)
    )
    return ScatteringConfig(
        clusters=clusters,
        sigma_azimuth=math.radians(draw(spread_degrees)),
        sigma_elevation=math.radians(draw(spread_degrees)),
        directivity_a=draw(exponents),
        directivity_b=draw(exponents),
    )


class TestReferenceMassesMatchQuad:
    @settings(max_examples=60)
    @given(config=cluster_scenes(specular=False))
    def test_diffuse_clusters(self, config):
        masses = cluster_reference_masses(config)
        assert masses == pytest.approx(quad_reference_masses(config), rel=1e-12, abs=0.0)

    @settings(max_examples=30)
    @given(config=cluster_scenes(specular=True))
    def test_specular_clusters(self, config):
        masses = cluster_reference_masses(config)
        assert masses == pytest.approx(quad_reference_masses(config), rel=1e-12, abs=0.0)

    # Below half a degree quad's own error nears 1e-12 and the oracle stops
    # being one.
    @pytest.mark.parametrize("spread", [0.5, 60.0, 120.0])
    @pytest.mark.parametrize("nominal", [0.0, 86.0, 89.9])
    def test_extreme_spreads_and_edges(self, spread, nominal):
        config = ScatteringConfig(
            clusters=(Cluster(math.radians(nominal), math.radians(-nominal), 1.0),),
            sigma_azimuth=math.radians(spread),
            sigma_elevation=math.radians(spread),
            directivity_a=0.3,
            directivity_b=1.7,
        )
        masses = cluster_reference_masses(config)
        assert masses == pytest.approx(quad_reference_masses(config), rel=1e-12, abs=0.0)


class TestReferenceIntegralFailures:
    def test_non_finite_integrand_raises(self, monkeypatch):
        def broken(nominal, exponent, sigma, deviation):
            return np.where(np.asarray(deviation) > 0.01, np.nan, 1.0)

        monkeypatch.setattr(holomimo.scattering, "_axis_profile", broken)
        with pytest.raises(NumericalError, match="non-finite"):
            cluster_reference_masses(two_cluster_config())

    def test_bisection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(holomimo.scattering, "MAX_BISECTIONS", 2)
        with pytest.raises(NumericalError, match="did not converge in 2 bisections"):
            cluster_reference_masses(two_cluster_config())

    @pytest.mark.parametrize("spread_deg", [0.05, 0.03, 0.02, 0.01])
    def test_interval_cap_raises(self, interval_guard, spread_deg):
        # a lobe this narrow never converges: 673,252 intervals at 0.05 degrees
        # and millions below, until memory ran out
        sigma = math.radians(spread_deg)
        config = ScatteringConfig((Cluster(0.3, -0.2, 1.0),), sigma, sigma)
        with pytest.raises(NumericalError) as failure:
            cluster_reference_masses(config)
        message = str(failure.value)
        assert f"{holomimo.scattering.MAX_INTERVALS} intervals" in message
        assert f"spread {spread_deg:g} deg" in message and '"specular": true' in message

    @pytest.mark.parametrize("specular_only", [False, True])
    def test_zero_reference_mass_raises(self, interval_guard, specular_only):
        # at 0.005 degrees the lobe falls between the first nodes, every mass
        # came out 0.0 and the builder silently dropped the specular cluster
        sigma = math.radians(0.005)
        specular = Cluster(-0.4, 0.1, 0.5, specular=True)
        clusters = (specular,) if specular_only else (Cluster(0.3, -0.2, 0.5), specular)
        config = ScatteringConfig(clusters, sigma, sigma)
        match = r'zero reference mass; at angular spread 0\.005 x 0\.005 deg.*"specular": true'
        with pytest.raises(NumericalError, match=match):
            cluster_reference_masses(config)
        with pytest.raises(NumericalError, match="zero reference mass"):
            build_exact_clustered(ArrayGeometry(4, 4, 0.25, 1.0), config)


class TestNormalizationConstant:
    def test_frozen_value(self):
        # reference: independently integrated mixture, checked to renormalize
        # the density to unit mass over the hemisphere
        assert normalization_constant(two_cluster_config()) == pytest.approx(
            7.228996252738401e-61, rel=1e-9
        )

    def test_normalizes_the_mixture(self):
        cfg = two_cluster_config()
        c = normalization_constant(cfg)
        total, _ = integrate.dblquad(
            lambda az, el: c
            * (
                unnormalized_cluster_density(cfg, 0, az - math.radians(25), el - math.radians(10))
                + unnormalized_cluster_density(cfg, 1, az + math.radians(40), el + math.radians(20))
            ),
            -math.pi / 2,
            math.pi / 2,
            -math.pi / 2,
            math.pi / 2,
            epsabs=1e-12,
            epsrel=1e-10,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_underflows_to_zero_for_tiny_spreads(self):
        cfg = ScatteringConfig(
            clusters=(Cluster(0.0, 0.0, 1.0),),
            sigma_azimuth=math.radians(0.5),
            sigma_elevation=math.radians(0.5),
        )
        assert normalization_constant(cfg) == 0.0


class TestDirectivityGain:
    def test_isotropic_element_gain_is_two(self):
        assert directivity_gain(Direction(0.0, 0.0), 0.0, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "a,b,broadside",
        [(1.0, 1.0, 4.0), (5.0, 5.0, 12.0), (2.0, 3.0, 6.790610905254202)],
    )
    def test_broadside_values(self, a, b, broadside):
        assert directivity_gain(Direction(0.0, 0.0), a, b) == pytest.approx(broadside, rel=1e-12)

    def test_radiated_power_is_4pi(self):
        total, _ = integrate.dblquad(
            lambda az, el: directivity_gain(Direction(az, el), 1.0, 1.0) * math.cos(el),
            -math.pi / 2,
            math.pi / 2,
            -math.pi / 2,
            math.pi / 2,
            epsabs=1e-12,
            epsrel=1e-10,
        )
        assert total == pytest.approx(4 * math.pi, rel=1e-9)

    def test_off_axis_follows_cosine_powers(self):
        broadside = directivity_gain(Direction(0.0, 0.0), 2.0, 1.0)
        value = directivity_gain(Direction(0.5, -0.3), 2.0, 1.0)
        assert value == pytest.approx(broadside * math.cos(0.5) ** 2 * math.cos(-0.3))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            directivity_gain(Direction(0.0, 0.0), -1.0, 0.0)

    @pytest.mark.parametrize("exponents", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0)])
    def test_rejects_non_finite_exponents(self, exponents):
        with pytest.raises(ValueError, match="finite"):
            directivity_gain(Direction(0.0, 0.0), *exponents)

    @staticmethod
    def scipy_gamma_gain(direction, a, b):
        # the formula as written with scipy.special.gamma
        az = math.sqrt(np.pi) * special.gamma((a + 1) / 2) / special.gamma(a / 2 + 1)
        el = math.sqrt(np.pi) * special.gamma((b + 2) / 2) / special.gamma((b + 1) / 2 + 1)
        return 4 * np.pi / (az * el) * math.cos(direction.azimuth) ** a * math.cos(
            direction.elevation
        ) ** b

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("b", [0.0, 1.0, 2.5, 4.0])
    def test_matches_scipy_gamma_formula(self, a, b):
        direction = Direction(0.4, -0.7)
        expected = self.scipy_gamma_gain(direction, a, b)
        assert directivity_gain(direction, a, b) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=200)
    @given(a=exponents, b=exponents, az=st.floats(-1.5, 1.5), el=st.floats(-1.5, 1.5))
    def test_matches_scipy_gamma_formula_at_fractional_exponents(self, a, b, az, el):
        # math.gamma and scipy's gamma are each a few ulps off the exact
        # value at arbitrary arguments; four of them enter the gain
        direction = Direction(az, el)
        expected = self.scipy_gamma_gain(direction, a, b)
        assert directivity_gain(direction, a, b) == pytest.approx(expected, rel=4e-15, abs=0.0)


class TestGenerateClusters:
    def test_count_and_normalized_powers(self):
        rng = np.random.default_rng(5)
        clusters = generate_clusters(6, 3.0, (-1.0, 1.0), (-0.5, 0.5), rng)
        assert len(clusters) == 6
        powers = [c.power for c in clusters]
        assert sum(powers) == pytest.approx(1.0)
        # exponential profile: each cluster carries exp(1/decay) times less power
        for first, second in zip(powers, powers[1:]):
            assert first / second == pytest.approx(math.exp(1 / 3.0))

    def test_angles_respect_ranges(self):
        rng = np.random.default_rng(11)
        clusters = generate_clusters(40, 5.0, (-0.6, -0.2), (0.1, 0.4), rng)
        for c in clusters:
            assert -0.6 <= c.azimuth <= -0.2
            assert 0.1 <= c.elevation <= 0.4
            assert not c.specular

    def test_deterministic_given_seed(self):
        first = generate_clusters(4, 2.0, (-1.0, 1.0), (-1.0, 1.0), np.random.default_rng(9))
        second = generate_clusters(4, 2.0, (-1.0, 1.0), (-1.0, 1.0), np.random.default_rng(9))
        assert first == second

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_clusters(0, 2.0, (-1.0, 1.0), (-1.0, 1.0), rng)
        with pytest.raises(ValueError):
            generate_clusters(3, 0.0, (-1.0, 1.0), (-1.0, 1.0), rng)
        with pytest.raises(ValueError):
            generate_clusters(3, 2.0, (-2.0, 1.0), (-1.0, 1.0), rng)
        with pytest.raises(ValueError):
            generate_clusters(3, 2.0, (-1.0, 1.0), (0.0, math.pi / 2), rng)

    def test_underflowing_powers_rejected_without_warning(self):
        # exp(-n / 0.001) is 0.0 in float64 for every n >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every cluster power underflows"):
                generate_clusters(20, 0.001, (-1.0, 1.0), (-0.5, 0.5), np.random.default_rng(0))
