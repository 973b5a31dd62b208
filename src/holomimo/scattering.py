"""Angular scattering densities over the front hemisphere.

Two families are modeled. The isotropic density cos(theta)/(2*pi) spreads
power uniformly over the hemisphere. The clustered density is a mixture of
von Mises lobes in azimuth/elevation deviation around per-cluster nominal
angles, weighted by the antenna directivity pattern cos^a(phi) cos^b(theta)
and the cos(theta) solid-angle factor.

A cluster's density is the product of two axis factors, each a von Mises
lobe times a cosine power of the arrival angle (cos^a in azimuth,
cos^(b+1) in elevation). One routine evaluates that factor from the nominal
angle, the cosine exponent and the spread. It serves the public axis
profiles, the reference masses and the correlation builder's fixed-node
rule, so the formula is written once.

Von Mises factors exp(cos(2*x)/(4*sigma^2)) overflow float64 for angular
spreads below roughly 1.5 degrees, so every internal evaluation works with
the peak-referenced factor exp((cos(2*x) - 1)/(4*sigma^2)) instead, which
lies in (0, 1]. The common peak factor cancels between a cluster's mass and
the mixture normalization, so correlation builders never need it; only the
standalone normalization constant reintroduces it.

Each cluster's reference mass, the accuracy reference for the builders'
fixed-node rules, is a product of 1-D integrals. They are computed by a
vectorised adaptive Gauss-Legendre scheme in numpy: a 20-point rule gives
each interval's value and its gap to a 10-point rule the error; the
intervals that carry the error are bisected together, round by round,
until the summed error is at most 1e-12 of the integral. A non-finite
integrand value, or no convergence within MAX_BISECTIONS rounds, raises
NumericalError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .geometry import Direction

_HALF_PI = np.pi / 2
_REFERENCE_RTOL = 1e-12
# Rounds of bisection before a reference integral counts as unconverged.
MAX_BISECTIONS = 50


@dataclass(frozen=True)
class Cluster:
    """One scattering cluster: nominal arrival angles (radians) and relative power.

    A specular cluster concentrates its power exactly at the nominal angles
    (the zero-spread limit) instead of a von Mises lobe.
    """

    azimuth: float
    elevation: float
    power: float
    specular: bool = False

    def __post_init__(self) -> None:
        if not -_HALF_PI < self.azimuth < _HALF_PI:
            raise ValueError(f"cluster azimuth {self.azimuth!r} outside (-pi/2, pi/2)")
        if not -_HALF_PI < self.elevation < _HALF_PI:
            raise ValueError(f"cluster elevation {self.elevation!r} outside (-pi/2, pi/2)")
        if not self.power >= 0:
            raise ValueError(f"cluster power must be nonnegative, got {self.power}")


@dataclass(frozen=True)
class ScatteringConfig:
    """Clustered scattering model shared by all correlation builders.

    Parameters
    ----------
    clusters:
        Mixture components; at least one must carry positive power.
    sigma_azimuth, sigma_elevation:
        Angular spreads of the von Mises deviation lobes, in radians.
    directivity_a, directivity_b:
        Exponents of the antenna gain pattern cos^a(phi) cos^b(theta).
        Zero on both axes models isotropic elements.
    gain:
        Average channel gain beta; the matched correlation matrix has trace
        num_antennas * gain.
    """

    clusters: tuple[Cluster, ...]
    sigma_azimuth: float
    sigma_elevation: float
    directivity_a: float = 0.0
    directivity_b: float = 0.0
    gain: float = 1.0

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("scattering config needs at least one cluster")
        if not any(c.power > 0 for c in self.clusters):
            raise ValueError("at least one cluster must have positive power")
        if not self.sigma_azimuth > 0:
            raise ValueError(f"sigma_azimuth must be positive, got {self.sigma_azimuth}")
        if not self.sigma_elevation > 0:
            raise ValueError(f"sigma_elevation must be positive, got {self.sigma_elevation}")
        if self.directivity_a < 0 or self.directivity_b < 0:
            raise ValueError("directivity exponents must be nonnegative")
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")

    @property
    def has_specular(self) -> bool:
        return any(c.specular for c in self.clusters)


def isotropic_density(direction: Direction) -> float:
    """Isotropic scattering density cos(elevation)/(2*pi); integrates to one."""
    return math.cos(direction.elevation) / (2 * np.pi)


def _clamped_cos_power(angle: np.ndarray, exponent: float) -> np.ndarray:
    """cos(angle)**exponent with the cosine clamped at zero.

    At the hemisphere edge cos can round to a tiny negative, which a
    fractional exponent would turn into NaN.
    """
    c = np.maximum(np.cos(angle), 0.0)
    if exponent == 0.0:
        return np.ones_like(c)
    return c**exponent


def peak_relative_lobe(deviation: np.ndarray, sigma: float) -> np.ndarray:
    """Von Mises deviation factor referenced to its peak, exp((cos(2x) - 1)/(4 sigma^2))."""
    return np.exp((np.cos(2.0 * np.asarray(deviation, dtype=float)) - 1.0) / (4.0 * sigma**2))


def _cluster_axes(config: ScatteringConfig, n: int) -> tuple[tuple[float, float, float], ...]:
    """Cluster n's (nominal angle, cosine exponent, spread) on azimuth, then elevation.

    The elevation exponent carries one extra cosine power, the solid-angle factor.
    """
    cluster = config.clusters[n]
    return (
        (cluster.azimuth, config.directivity_a, config.sigma_azimuth),
        (cluster.elevation, config.directivity_b + 1.0, config.sigma_elevation),
    )


def _axis_profile(
    nominal: float, exponent: float, sigma: float, deviation: np.ndarray
) -> np.ndarray:
    """cos^exponent(nominal + deviation) * exp((cos(2*deviation) - 1) / (4*sigma^2)).

    Elementwise; zero where nominal + deviation leaves the hemisphere. The
    one formula behind both axis profiles, the specular peaks and the
    builder's fixed-node rule.
    """
    deviation = np.asarray(deviation, dtype=float)
    angle = nominal + deviation
    inside = np.abs(angle) <= _HALF_PI
    value = _clamped_cos_power(angle, exponent) * peak_relative_lobe(deviation, sigma)
    return np.where(inside, value, 0.0)


def azimuth_profile(config: ScatteringConfig, n: int, deviation: np.ndarray) -> np.ndarray:
    """Azimuth factor of cluster n's density in peak-referenced form.

    Evaluates cos^a(azimuth_n + deviation) * exp((cos(2*deviation) - 1) /
    (4*sigma_azimuth^2)) elementwise; zero outside the hemisphere.
    """
    return _axis_profile(*_cluster_axes(config, n)[0], deviation)


def elevation_profile(config: ScatteringConfig, n: int, deviation: np.ndarray) -> np.ndarray:
    """Elevation factor of cluster n's density in peak-referenced form.

    Evaluates cos^(b+1)(elevation_n + deviation) * exp((cos(2*deviation) - 1) /
    (4*sigma_elevation^2)); the extra cosine power is the solid-angle factor.
    """
    return _axis_profile(*_cluster_axes(config, n)[1], deviation)


def _log_peak(config: ScatteringConfig) -> float:
    """Log of the shared peak factor, 1/(4*sigma_azimuth^2) + 1/(4*sigma_elevation^2)."""
    return 1.0 / (4.0 * config.sigma_azimuth**2) + 1.0 / (4.0 * config.sigma_elevation**2)


def unnormalized_cluster_density(
    config: ScatteringConfig, n: int, deviation_azimuth: float, deviation_elevation: float
) -> float:
    """Cluster n's density at the given angular deviations, before normalization.

    This is the product of the two axis profiles times the shared peak factor
    exp(1/(4*sigma_azimuth^2) + 1/(4*sigma_elevation^2)); it overflows for
    spreads below roughly 1.5 degrees, in which case the peak-referenced
    profiles should be used directly. Specular clusters have no pointwise
    density (their mass is a point mass at zero deviation).
    """
    if config.clusters[n].specular:
        raise ValueError("specular clusters have no pointwise density")
    value = (
        config.clusters[n].power
        * azimuth_profile(config, n, deviation_azimuth)
        * elevation_profile(config, n, deviation_elevation)
    )
    return float(value) * math.exp(_log_peak(config))


def deviation_window(
    nominal: float, sigma: float, support_radius: float | None
) -> tuple[float, float]:
    """Deviation interval over which a cluster axis profile is nonzero.

    The hemisphere limits the deviation to [-pi/2 - nominal, pi/2 - nominal];
    when `support_radius` is given the window is additionally truncated to
    +/- support_radius * sigma around the lobe peak, outside of which the
    peak-referenced factor is negligible for any support_radius >= 10.
    """
    lo = -_HALF_PI - nominal
    hi = _HALF_PI - nominal
    if support_radius is not None:
        lo = max(lo, -support_radius * sigma)
        hi = min(hi, support_radius * sigma)
    if not lo < hi:
        raise ValueError("empty deviation window; nominal angle sits on the hemisphere edge")
    return lo, hi


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], computed once."""
    return np.polynomial.legendre.leggauss(order)


def _gauss_pair(integrand, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """20-point value and |20-point - 10-point| error on each interval [lo_i, hi_i]."""
    centre = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    estimates = []
    for order in (10, 20):
        nodes, weights = _gauss_legendre(order)
        samples = integrand(centre[:, None] + half[:, None] * nodes)
        if not np.isfinite(samples).all():
            raise NumericalError("reference integrand has non-finite values (NaN or Inf)")
        estimates.append(half * (samples @ weights))
    coarse, fine = estimates
    return fine, np.abs(fine - coarse)


def _adaptive_integral(integrand, lo: float, hi: float) -> float:
    """Integral of a vectorised integrand over [lo, hi] to relative error 1e-12.

    The interval is split at 0, where every lobe peaks. Each round keeps the
    intervals of smallest error while their errors sum to at most half the
    tolerance and bisects all the others at once. Raises NumericalError when
    the summed error is still above the tolerance after MAX_BISECTIONS rounds.
    """
    edges = np.array([lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi])
    left, right = edges[:-1], edges[1:]
    values, errors = _gauss_pair(integrand, left, right)
    for depth in range(MAX_BISECTIONS + 1):
        total = float(values.sum())
        tolerance = _REFERENCE_RTOL * abs(total)
        if errors.sum() <= tolerance:
            return total
        if depth == MAX_BISECTIONS:
            break
        order = np.argsort(errors)
        split = np.ones(errors.size, dtype=bool)
        split[order[np.cumsum(errors[order]) <= tolerance / 2.0]] = False
        middle = (left[split] + right[split]) / 2.0
        child_left = np.concatenate([left[split], middle])
        child_right = np.concatenate([middle, right[split]])
        child_values, child_errors = _gauss_pair(integrand, child_left, child_right)
        keep = ~split
        left = np.concatenate([left[keep], child_left])
        right = np.concatenate([right[keep], child_right])
        values = np.concatenate([values[keep], child_values])
        errors = np.concatenate([errors[keep], child_errors])
    raise NumericalError(
        f"reference integral over [{lo:.6g}, {hi:.6g}] did not converge in "
        f"{MAX_BISECTIONS} bisections (error {errors.sum():.3e}, value {total:.6e})"
    )


def cluster_reference_masses(config: ScatteringConfig) -> np.ndarray:
    """Peak-referenced mass of each cluster, shape (N,).

    Entry n is the cluster's contribution to the mixture integral divided by
    the shared peak factor exp(1/(4*sigma_azimuth^2) + 1/(4*sigma_elevation^2)).
    Serves as the accuracy reference for the fixed-node rules used by the
    correlation builders. Both axes go through the module's one axis
    routine, which also serves the builders' fixed-node rule and the public
    profiles. A diffuse cluster's mass is the product of its two
    axis-profile integrals over the hemisphere window. A specular cluster is
    the zero-spread limit of a von Mises lobe, whose mass factorizes as (peak
    density) * (lobe area): its mass is the product of its two profiles at
    zero deviation and the two lobe areas, each area integrated once per
    spread. Every 1-D integral comes from the adaptive Gauss-Legendre scheme
    of this module, to relative error 1e-12; it raises NumericalError on a
    non-finite integrand value or when it does not converge within
    MAX_BISECTIONS rounds.
    """

    @functools.cache
    def lobe_area(sigma: float) -> float:
        return _adaptive_integral(lambda x: peak_relative_lobe(x, sigma), -_HALF_PI, _HALF_PI)

    masses = np.zeros(len(config.clusters))
    for n, cluster in enumerate(config.clusters):
        if cluster.power == 0.0:
            continue
        peaks, areas = [], []
        axes = zip((azimuth_profile, elevation_profile), _cluster_axes(config, n))
        for profile, (nominal, _, sigma) in axes:
            if cluster.specular:
                peaks.append(float(profile(config, n, 0.0)))
                areas.append(lobe_area(sigma))
            else:
                window = deviation_window(nominal, sigma, None)
                areas.append(_adaptive_integral(lambda x: profile(config, n, x), *window))
        masses[n] = math.prod([cluster.power, *peaks, *areas])
    return masses


def normalization_constant(config: ScatteringConfig) -> float:
    """Constant scaling the cluster mixture to integrate to one.

    Underflows to zero for angular spreads below roughly 1.5 degrees because
    the constant has to cancel the astronomically large von Mises peak; the
    correlation builders work in peak-referenced form and never hit this.
    """
    total = float(np.sum(cluster_reference_masses(config)))
    return math.exp(-(_log_peak(config) + math.log(total)))


def directivity_gain(direction: Direction, a: float = 0.0, b: float = 0.0) -> float:
    """Antenna gain cos^a(azimuth) cos^b(elevation), normalized to radiate 4*pi.

    The normalization makes the gain integrate to 4*pi against the
    solid-angle measure cos(elevation) over the front hemisphere, so a = b = 0
    gives the constant 2 (all power radiated forward).
    """
    if a < 0 or b < 0:
        raise ValueError("directivity exponents must be nonnegative")
    # Hemisphere integrals of cos^p are Wallis integrals sqrt(pi)*G((p+1)/2)/G(p/2+1).
    az_integral = math.sqrt(np.pi) * math.gamma((a + 1) / 2) / math.gamma(a / 2 + 1)
    el_integral = math.sqrt(np.pi) * math.gamma((b + 2) / 2) / math.gamma((b + 1) / 2 + 1)
    scale = 4 * np.pi / (az_integral * el_integral)
    return scale * float(
        _clamped_cos_power(np.asarray(direction.azimuth), a)
        * _clamped_cos_power(np.asarray(direction.elevation), b)
    )


def generate_clusters(
    count: int,
    power_decay: float,
    azimuth_range: tuple[float, float],
    elevation_range: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[Cluster, ...]:
    """Draw a random cluster set with an exponential power profile.

    Cluster n (1-based) has power proportional to exp(-n / power_decay); the
    powers are normalized to sum to one. Nominal angles are uniform over the
    given (low, high) ranges in radians, which must lie strictly inside the
    front hemisphere.
    """
    if count < 1:
        raise ValueError(f"cluster count must be at least 1, got {count}")
    if not power_decay > 0:
        raise ValueError(f"power decay must be positive, got {power_decay}")
    for name, (lo, hi) in (("azimuth", azimuth_range), ("elevation", elevation_range)):
        if not (-_HALF_PI < lo <= hi < _HALF_PI):
            raise ValueError(f"{name} range {lo, hi} not inside (-pi/2, pi/2)")
    powers = np.exp(-np.arange(1, count + 1) / power_decay)
    total = powers.sum()
    if total == 0.0:
        raise ValueError(f"every cluster power underflows to zero at power decay {power_decay}")
    powers /= total
    azimuths = rng.uniform(azimuth_range[0], azimuth_range[1], size=count)
    elevations = rng.uniform(elevation_range[0], elevation_range[1], size=count)
    return tuple(
        Cluster(azimuth=float(az), elevation=float(el), power=float(p))
        for az, el, p in zip(azimuths, elevations, powers)
    )
