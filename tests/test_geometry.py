"""Tests for planar array geometry, indexing, and array responses."""

import math

import numpy as np
import pytest

from holomimo import (
    ArrayGeometry,
    Direction,
    antenna_indices,
    antenna_position,
    array_response,
    normalized_offsets,
    wave_vector,
)
from holomimo.geometry import grid_indices


class TestArrayGeometry:
    def test_antenna_count(self):
        g = ArrayGeometry(num_horizontal=4, num_vertical=3, spacing=0.1, wavelength=0.4)
        assert g.num_antennas == 12

    def test_spacing_fraction(self):
        g = ArrayGeometry(4, 3, spacing=0.1, wavelength=0.4)
        assert g.spacing_fraction == pytest.approx(0.25)

    def test_single_antenna_allowed(self):
        assert ArrayGeometry(1, 1, 0.5, 1.0).num_antennas == 1

    @pytest.mark.parametrize("m_h,m_v", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_axes(self, m_h, m_v):
        with pytest.raises(ValueError):
            ArrayGeometry(m_h, m_v, 0.5, 1.0)

    @pytest.mark.parametrize(
        "m_h,m_v", [(2.5, 2), (2, 2.0), (True, 2), (2, np.True_), ("3", 2)]
    )
    def test_rejects_non_integer_counts(self, m_h, m_v):
        with pytest.raises(ValueError, match="antenna counts must be integers"):
            ArrayGeometry(m_h, m_v, 0.25, 1.0)

    def test_numpy_integer_counts_allowed(self):
        g = ArrayGeometry(np.int64(3), np.int32(2), 0.25, 1.0)
        assert g.num_antennas == 6

    @pytest.mark.parametrize(
        "spacing,wavelength",
        [
            (0.0, 1.0),
            (-0.1, 1.0),
            (0.5, 0.0),
            (float("inf"), 1.0),
            (0.5, float("inf")),
            (float("nan"), 1.0),
            (True, 1.0),
            (0.5, True),
            pytest.param(np.True_, 1.0, id="numpy_true-1.0"),
        ],
    )
    def test_rejects_nonpositive_lengths(self, spacing, wavelength):
        with pytest.raises(ValueError):
            ArrayGeometry(2, 2, spacing, wavelength)


class TestDirection:
    def test_hemisphere_bounds_inclusive(self):
        Direction(azimuth=np.pi / 2, elevation=-np.pi / 2)

    @pytest.mark.parametrize("az,el", [(2.0, 0.0), (0.0, -2.0), (-1.6, 0.0)])
    def test_rejects_back_hemisphere(self, az, el):
        with pytest.raises(ValueError):
            Direction(az, el)


class TestIndexing:
    """Antennas are numbered 1..M row by row from the bottom-left corner."""

    def setup_method(self):
        self.geometry = ArrayGeometry(4, 3, spacing=0.2, wavelength=0.8)

    def test_corner_antennas(self):
        assert antenna_indices(self.geometry, 1) == (0, 0)
        assert antenna_indices(self.geometry, 4) == (3, 0)
        assert antenna_indices(self.geometry, 5) == (0, 1)
        assert antenna_indices(self.geometry, 12) == (3, 2)

    @pytest.mark.parametrize("m", [0, -1, 13])
    def test_out_of_range_raises(self, m):
        with pytest.raises(IndexError):
            antenna_indices(self.geometry, m)

    def test_positions_live_in_yz_plane(self):
        p = antenna_position(self.geometry, 7)
        # antenna 7 -> grid (2, 1), scaled by the 0.2 m spacing
        assert p == pytest.approx([0.0, 0.4, 0.2])

    def test_grid_indices_match_scalar_indexing(self):
        i, j = grid_indices(self.geometry)
        for m in range(1, self.geometry.num_antennas + 1):
            assert (i[m - 1], j[m - 1]) == antenna_indices(self.geometry, m)

    def test_normalized_offsets(self):
        d_h, d_v = normalized_offsets(self.geometry, 7, 1)
        assert d_h == pytest.approx(2 * 0.25)
        assert d_v == pytest.approx(1 * 0.25)
        # swapping the antennas negates both offsets
        assert normalized_offsets(self.geometry, 1, 7) == pytest.approx((-0.5, -0.25))

    def test_offset_of_antenna_with_itself_is_zero(self):
        assert normalized_offsets(self.geometry, 5, 5) == (0.0, 0.0)


class TestWaveVector:
    def setup_method(self):
        self.geometry = ArrayGeometry(2, 2, spacing=0.25, wavelength=1.0)

    def test_broadside(self):
        k = wave_vector(self.geometry, Direction(0.0, 0.0))
        assert k == pytest.approx([2 * np.pi, 0.0, 0.0])

    def test_endfire_azimuth(self):
        k = wave_vector(self.geometry, Direction(np.pi / 2, 0.0))
        assert k == pytest.approx([0.0, 2 * np.pi, 0.0], abs=1e-12)

    def test_zenith(self):
        k = wave_vector(self.geometry, Direction(0.0, np.pi / 2))
        assert k == pytest.approx([0.0, 0.0, 2 * np.pi], abs=1e-12)

    def test_norm_is_wavenumber(self):
        for az, el in [(0.3, -0.2), (-1.1, 0.7), (1.5, 1.5)]:
            k = wave_vector(self.geometry, Direction(az, el))
            assert np.linalg.norm(k) == pytest.approx(2 * np.pi)

    def test_wavelength_scaling(self):
        short = ArrayGeometry(2, 2, 0.25, wavelength=0.5)
        k = wave_vector(short, Direction(0.4, 0.1))
        k_ref = wave_vector(self.geometry, Direction(0.4, 0.1))
        assert k == pytest.approx(2 * k_ref)


class TestArrayResponse:
    def test_unit_modulus_and_norm(self):
        g = ArrayGeometry(5, 3, 0.125, 1.0)
        a = array_response(g, Direction(0.7, -0.3))
        assert a.shape == (15,)
        assert np.abs(a) == pytest.approx(np.ones(15))
        assert np.vdot(a, a).real == pytest.approx(15.0)

    def test_half_wavelength_pair_phase(self):
        # two antennas half a wavelength apart, wave from 30 degrees azimuth:
        # phase difference 2*pi*(1/2)*sin(30deg) = pi/2, so the ratio is 1j
        g = ArrayGeometry(2, 1, 0.5, 1.0)
        a = array_response(g, Direction(math.radians(30.0), 0.0))
        assert a[0] == pytest.approx(1.0)
        assert a[1] / a[0] == pytest.approx(1j)

    def test_broadside_is_uniform(self):
        g = ArrayGeometry(3, 3, 0.25, 1.0)
        a = array_response(g, Direction(0.0, 0.0))
        assert a == pytest.approx(np.ones(9))

    def test_phase_separates_into_grid_terms(self):
        g = ArrayGeometry(3, 4, 0.2, 1.0)
        direction = Direction(-0.4, 0.25)
        a = array_response(g, direction)
        s = g.spacing_fraction
        d_h = 2 * np.pi * s * math.sin(direction.azimuth) * math.cos(direction.elevation)
        d_v = 2 * np.pi * s * math.sin(direction.elevation)
        i, j = grid_indices(g)
        assert a == pytest.approx(np.exp(1j * (i * d_h + j * d_v)))
