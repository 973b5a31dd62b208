"""Uniform planar array geometry and plane-wave array responses.

The array lives in the yz-plane: antenna m (1-based, counted row by row from
the bottom-left corner) sits at [0, i*spacing, j*spacing] where i and j are its
horizontal and vertical grid indices. Directions are (azimuth, elevation) pairs
in radians, both restricted to the front hemisphere [-pi/2, pi/2].
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

_HALF_PI = np.pi / 2


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array with equal horizontal and vertical spacing.

    Parameters
    ----------
    num_horizontal, num_vertical:
        Antennas per row and per column: integers (numpy integers too, but
        not booleans), at least 1. The array has M = num_horizontal *
        num_vertical elements in total.
    spacing:
        Inter-antenna distance in meters, shared by both axes: finite and
        positive, not a boolean. Values below half a wavelength model dense
        (holographic) deployments.
    wavelength:
        Carrier wavelength in meters, finite and positive, not a boolean.
    """

    num_horizontal: int
    num_vertical: int
    spacing: float
    wavelength: float

    def __post_init__(self) -> None:
        counts = (self.num_horizontal, self.num_vertical)
        if any(isinstance(c, bool) or not isinstance(c, Integral) for c in counts):
            raise ValueError(f"antenna counts must be integers, got {counts!r}")
        if self.num_horizontal < 1 or self.num_vertical < 1:
            raise ValueError("array needs at least one antenna per row and per column")
        for name, length in (("spacing", self.spacing), ("wavelength", self.wavelength)):
            if isinstance(length, (bool, np.bool_)) or not 0 < length < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {length!r}")

    @property
    def num_antennas(self) -> int:
        return self.num_horizontal * self.num_vertical

    @property
    def spacing_fraction(self) -> float:
        """Spacing measured in wavelengths, spacing / wavelength."""
        return self.spacing / self.wavelength


@dataclass(frozen=True)
class Direction:
    """Propagation direction in radians, limited to the front hemisphere."""

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        if not -_HALF_PI <= self.azimuth <= _HALF_PI:
            raise ValueError(f"azimuth {self.azimuth!r} outside [-pi/2, pi/2]")
        if not -_HALF_PI <= self.elevation <= _HALF_PI:
            raise ValueError(f"elevation {self.elevation!r} outside [-pi/2, pi/2]")


def antenna_indices(geometry: ArrayGeometry, m: int) -> tuple[int, int]:
    """Horizontal and vertical grid indices (0-based) of antenna m (1-based)."""
    if not 1 <= m <= geometry.num_antennas:
        raise IndexError(f"antenna index {m} outside [1, {geometry.num_antennas}]")
    return (m - 1) % geometry.num_horizontal, (m - 1) // geometry.num_horizontal


def antenna_position(geometry: ArrayGeometry, m: int) -> np.ndarray:
    """Cartesian position of antenna m in meters, shape (3,)."""
    i, j = antenna_indices(geometry, m)
    return np.array([0.0, i * geometry.spacing, j * geometry.spacing])


def grid_indices(geometry: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical indices of all antennas in storage order, shape (M,) each."""
    m = np.arange(geometry.num_antennas)
    return m % geometry.num_horizontal, m // geometry.num_horizontal


def wave_vector(geometry: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Wave vector of a plane wave from `direction`, shape (3,), units rad/m."""
    cos_el = np.cos(direction.elevation)
    return (2 * np.pi / geometry.wavelength) * np.array(
        [
            cos_el * np.cos(direction.azimuth),
            cos_el * np.sin(direction.azimuth),
            np.sin(direction.elevation),
        ]
    )


def array_response(geometry: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Array response vector, shape (M,) complex with unit-modulus entries.

    Entry m is exp(1j * k . u_m) with k the wave vector and u_m the antenna
    position, so the vector has squared norm exactly M.
    """
    k = wave_vector(geometry, direction)
    i, j = grid_indices(geometry)
    phase = k[1] * (i * geometry.spacing) + k[2] * (j * geometry.spacing)
    return np.exp(1j * phase)


def normalized_offsets(geometry: ArrayGeometry, m: int, l: int) -> tuple[float, float]:
    """Horizontal and vertical antenna offsets in wavelengths between antennas m and l.

    The pair (d_h, d_v) fully determines the phase difference between the two
    antennas for any arrival direction, which is what correlation models
    consume. Both antennas are 1-based.
    """
    i_m, j_m = antenna_indices(geometry, m)
    i_l, j_l = antenna_indices(geometry, l)
    s = geometry.spacing_fraction
    return (i_m - i_l) * s, (j_m - j_l) * s
