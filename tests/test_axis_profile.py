"""One axis routine: bit identity with the previous per-axis code.

The oracles below are the previous implementations, kept here verbatim in
behaviour: one profile function per axis, a reference mass that switches on
an axis name, the specular lobe areas computed once per config, and a
fixed-node rule that calls `leggauss` directly. The shared axis routine must
give the same reference masses, rules and profiles bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holomimo import Cluster, QuadratureSpec, ScatteringConfig
from holomimo.correlation import _diffuse_rules
from holomimo.scattering import (
    _HALF_PI,
    _adaptive_integral,
    _clamped_cos_power,
    azimuth_profile,
    cluster_reference_masses,
    deviation_window,
    elevation_profile,
    peak_relative_lobe,
)


def old_azimuth_profile(config, n, deviation):
    cluster = config.clusters[n]
    deviation = np.asarray(deviation, dtype=float)
    angle = cluster.azimuth + deviation
    inside = np.abs(angle) <= _HALF_PI
    value = _clamped_cos_power(angle, config.directivity_a)
    value = value * peak_relative_lobe(deviation, config.sigma_azimuth)
    return np.where(inside, value, 0.0)


def old_elevation_profile(config, n, deviation):
    cluster = config.clusters[n]
    deviation = np.asarray(deviation, dtype=float)
    angle = cluster.elevation + deviation
    inside = np.abs(angle) <= _HALF_PI
    value = _clamped_cos_power(angle, config.directivity_b + 1.0)
    value = value * peak_relative_lobe(deviation, config.sigma_elevation)
    return np.where(inside, value, 0.0)


def old_axis_reference_mass(config, n, axis):
    if axis == "azimuth":
        nominal, sigma = config.clusters[n].azimuth, config.sigma_azimuth
        profile = old_azimuth_profile
    else:
        nominal, sigma = config.clusters[n].elevation, config.sigma_elevation
        profile = old_elevation_profile
    lo, hi = deviation_window(nominal, sigma, None)
    return _adaptive_integral(lambda x: profile(config, n, x), lo, hi)


def old_specular_width_factors(config):
    def lobe_area(sigma):
        return _adaptive_integral(lambda x: peak_relative_lobe(x, sigma), -_HALF_PI, _HALF_PI)

    return lobe_area(config.sigma_azimuth), lobe_area(config.sigma_elevation)


def old_cluster_reference_masses(config):
    masses = np.zeros(len(config.clusters))
    specular_factors = None
    for n, cluster in enumerate(config.clusters):
        if cluster.power == 0.0:
            continue
        if cluster.specular:
            if specular_factors is None:
                specular_factors = old_specular_width_factors(config)
            masses[n] = (
                cluster.power
                * float(_clamped_cos_power(np.asarray(cluster.azimuth), config.directivity_a))
                * float(
                    _clamped_cos_power(np.asarray(cluster.elevation), config.directivity_b + 1.0)
                )
                * specular_factors[0]
                * specular_factors[1]
            )
        else:
            masses[n] = (
                cluster.power
                * old_axis_reference_mass(config, n, "azimuth")
                * old_axis_reference_mass(config, n, "elevation")
            )
    return masses


def old_diffuse_rules(config, quadrature):
    x_az, w_az = np.polynomial.legendre.leggauss(quadrature.nodes_azimuth)
    x_el, w_el = np.polynomial.legendre.leggauss(quadrature.nodes_elevation)

    def mapped(nominal, sigma, x, w):
        lo, hi = deviation_window(nominal, sigma, quadrature.support_radius)
        half = (hi - lo) / 2.0
        return (lo + hi) / 2.0 + half * x, half * w

    rules = {}
    for n, cluster in enumerate(config.clusters):
        if cluster.power == 0.0 or cluster.specular:
            continue
        az_nodes, az_w = mapped(cluster.azimuth, config.sigma_azimuth, x_az, w_az)
        el_nodes, el_w = mapped(cluster.elevation, config.sigma_elevation, x_el, w_el)
        rules[n] = (
            az_nodes,
            old_azimuth_profile(config, n, az_nodes) * az_w,
            el_nodes,
            old_elevation_profile(config, n, el_nodes) * el_w,
        )
    return rules


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def scenes(draw):
    """Mixed diffuse, specular and zero-power clusters with any directivity."""
    count = draw(st.integers(1, 4))
    clusters = tuple(
        Cluster(
            math.radians(draw(st.floats(-89.5, 89.5))),
            math.radians(draw(st.floats(-89.5, 89.5))),
            1.0 if n == 0 else draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
            specular=draw(st.booleans()),
        )
        for n in range(count)
    )
    spread = st.floats(0.5, 60.0)
    exponent = st.one_of(st.just(0.0), st.floats(0.0, 3.7))
    return ScatteringConfig(
        clusters=clusters,
        sigma_azimuth=math.radians(draw(spread)),
        sigma_elevation=math.radians(draw(spread)),
        directivity_a=draw(exponent),
        directivity_b=draw(exponent),
    )


quadratures = st.builds(
    QuadratureSpec,
    nodes_azimuth=st.integers(2, 64),
    nodes_elevation=st.integers(2, 64),
    support_radius=st.one_of(st.none(), st.floats(0.5, 20.0)),
)


class TestMatchesPerAxisCode:
    @settings(max_examples=150)
    @given(config=scenes(), quadrature=quadratures)
    def test_masses_and_rules_are_bit_identical(self, config, quadrature):
        masses = cluster_reference_masses(config)
        assert np.array_equal(bits(masses), bits(old_cluster_reference_masses(config)))
        rules = _diffuse_rules(config, quadrature)
        expected = old_diffuse_rules(config, quadrature)
        assert rules.keys() == expected.keys()
        for n, rule in rules.items():
            assert len(rule) == 4
            for got, want in zip(rule, expected[n]):
                assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=100)
    @given(config=scenes(), deviation=st.floats(-3.2, 3.2))
    def test_public_profiles_are_bit_identical(self, config, deviation):
        grid = np.array([deviation, 0.0, -deviation, deviation / 7.0])
        for n in range(len(config.clusters)):
            for profile, old in (
                (azimuth_profile, old_azimuth_profile),
                (elevation_profile, old_elevation_profile),
            ):
                assert np.array_equal(bits(profile(config, n, grid)), bits(old(config, n, grid)))
                assert bits(profile(config, n, deviation)) == bits(old(config, n, deviation))

    def test_specular_cluster_beside_diffuse_ones(self):
        # equal spreads share one cached lobe area; the product order of
        # power, the two peaks and the two areas is kept
        config = ScatteringConfig(
            clusters=(
                Cluster(math.radians(20), math.radians(-5), 0.6, specular=True),
                Cluster(math.radians(-35), math.radians(15), 0.4),
                Cluster(math.radians(70), math.radians(40), 0.2, specular=True),
            ),
            sigma_azimuth=math.radians(3.0),
            sigma_elevation=math.radians(3.0),
            directivity_a=1.5,
            directivity_b=0.5,
        )
        masses = cluster_reference_masses(config)
        assert np.array_equal(bits(masses), bits(old_cluster_reference_masses(config)))
