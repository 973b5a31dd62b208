"""Split horizontal phase of the exact builder: agreement with the per-offset table.

The oracle below is the previous horizontal table, kept here verbatim in
behaviour: one complex exponential per offset and node pair, an
M_H x N_az x N_el tensor contracted over the azimuth nodes with `einsum`.
The shipped builder splits the offset index h = B j + k and takes two short
tables of powers of one exponential per node pair, z = exp(i x), joined by
one GEMM per elevation node. Its matrices must agree with the oracle's to
rounding, keep the gain on the diagonal bit for bit, and leave every
statistic of the preset runs where the oracle puts it. Its powers must
agree with an extended-precision per-offset table to the rounding that
repeated multiplication allows. The tables are formed a block of elevation
nodes at a time: every block size must give the same bits, and a second
oracle, the earlier split that formed both tables for every elevation node
at once, bounds their memory.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holomimo.correlation
from holomimo import ArrayGeometry, Cluster, QuadratureSpec, ScatteringConfig, build_exact_clustered
from holomimo.cli import main
from holomimo.correlation import _horizontal_sums

M_H_VALUES = [1, 2, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65, 130]


def per_offset_horizontal_sums(geometry, g_az, sin_az, cos_el):
    """The previous horizontal table: one exponential per offset and node pair."""
    d_h = np.arange(geometry.num_horizontal) * geometry.spacing_fraction
    phase_h = np.exp(
        2j * np.pi * d_h[:, None, None] * (sin_az[None, :, None] * cos_el[None, None, :])
    )
    return np.einsum("d,hde->he", g_az.astype(np.complex128), phase_h)


def bits(values):
    return values.view(np.uint64)


def per_offset_table():
    """A context in which the exact builder uses the oracle's horizontal table."""
    return mock.patch.object(holomimo.correlation, "_horizontal_sums", per_offset_horizontal_sums)


@st.composite
def scenes(draw):
    """Diffuse, specular and zero-power clusters with nonzero directivity."""
    count = draw(st.integers(1, 4))
    clusters = tuple(
        Cluster(
            math.radians(draw(st.floats(-80.0, 80.0))),
            math.radians(draw(st.floats(-60.0, 60.0))),
            1.0 if n == 0 else draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
            specular=n > 0 and draw(st.booleans()),
        )
        for n in range(count)
    )
    spread = st.floats(1.0, 20.0)
    exponent = st.floats(0.25, 3.0)
    return ScatteringConfig(
        clusters=clusters,
        sigma_azimuth=math.radians(draw(spread)),
        sigma_elevation=math.radians(draw(spread)),
        directivity_a=draw(exponent),
        directivity_b=draw(exponent),
        gain=draw(st.floats(0.1, 10.0)),
    )


# Any rule passes the mass self-check: the oracle and the split evaluate
# the same rule, so only their arithmetic is compared here.
quadratures = st.builds(
    QuadratureSpec,
    nodes_azimuth=st.integers(2, 96),
    nodes_elevation=st.integers(2, 96),
    density_check_tol=st.just(1e300),
)


class TestMatchesPerOffsetTable:
    @pytest.mark.parametrize("m_h", M_H_VALUES)
    @settings(max_examples=15)
    @given(
        m_v=st.integers(1, 3),
        spacing=st.floats(0.125, 0.5),
        scattering=scenes(),
        quadrature=quadratures,
    )
    def test_entries_agree_to_rounding(self, m_h, m_v, spacing, scattering, quadrature):
        # spacing in wavelengths, lambda/8 to lambda/2
        geometry = ArrayGeometry(m_h, m_v, spacing, 1.0)
        matrix = build_exact_clustered(geometry, scattering, quadrature)
        with per_offset_table():
            expected = build_exact_clustered(geometry, scattering, quadrature)
        gain = scattering.gain
        assert np.abs(matrix.entries - expected.entries).max() <= 1e-13 * gain
        diagonal = np.diagonal(matrix.entries).copy()
        assert np.array_equal(bits(diagonal), bits(np.full_like(diagonal, gain)))


class CountingNumpy:
    """numpy, with the elements passed through `exp` counted."""

    def __init__(self):
        self.exponentials = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exponentials += np.size(x)
        return np.exp(x, *args, **kwargs)


@pytest.mark.parametrize("m_h, m_v", [(1, 2), (16, 3), (17, 1), (64, 2), (130, 1)])
def test_exponential_count(monkeypatch, m_h, m_v):
    # per diffuse cluster: one horizontal exponential per node pair, then
    # (2 M_V - 1) N_el vertical ones; specular and zero-power clusters add
    # one exponential per offset, or none
    scattering = ScatteringConfig(
        clusters=(
            Cluster(0.4, 0.1, 1.0),
            Cluster(-0.7, -0.3, 0.5),
            Cluster(0.2, 0.3, 0.0),
            Cluster(-0.1, 0.2, 0.4, specular=True),
        ),
        sigma_azimuth=0.08,
        sigma_elevation=0.06,
        directivity_a=1.0,
        directivity_b=1.0,
    )
    quadrature = QuadratureSpec(nodes_azimuth=64, nodes_elevation=48)
    counting = CountingNumpy()
    monkeypatch.setattr(holomimo.correlation, "np", counting)
    build_exact_clustered(ArrayGeometry(m_h, m_v, 0.25, 1.0), scattering, quadrature)
    offsets = m_h * (2 * m_v - 1)
    per_diffuse = 64 * 48 + (2 * m_v - 1) * 48
    assert counting.exponentials == 2 * per_diffuse + offsets


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than float64 on this platform",
)
@pytest.mark.parametrize("m_h", [*M_H_VALUES, 256])
@settings(max_examples=10)
@given(
    spacing=st.floats(0.125, 0.5),
    weight=st.floats(0.1, 10.0),
    sin_az=st.floats(-1.0, 1.0),
    cos_el=arrays(np.float64, st.integers(1, 96), elements=st.floats(-1.0, 1.0)),
)
def test_powers_match_the_extended_precision_table(m_h, spacing, weight, sin_az, cos_el):
    # one azimuth node, so entry [h, e] is weight * z[e]^h with no sum over
    # nodes; against exp(i h x) in long double at the builder's float64 x,
    # each power of z may add one rounding
    geometry = ArrayGeometry(m_h, 1, spacing, 1.0)
    sums = _horizontal_sums(geometry, np.array([weight]), np.array([sin_az]), cos_el)
    x = (2 * np.pi * spacing) * (cos_el * sin_az)
    h = np.arange(m_h, dtype=np.longdouble)[:, None]
    expected = weight * np.exp(1j * (h * x.astype(np.longdouble)))
    assert (np.abs(sums - expected) <= (h + 1) * 2.0**-52 * weight).all()


def all_nodes_horizontal_sums(geometry, g_az, sin_az, cos_el):
    """The previous split table: both exponential tables for all elevation nodes at once."""
    m_h = geometry.num_horizontal
    b = math.isqrt(m_h - 1) + 1
    j = -(-m_h // b)
    x = (2 * np.pi * geometry.spacing_fraction) * (cos_el[:, None] * sin_az[None, :])
    low = np.exp(1j * (x[:, :, None] * np.arange(b)))
    high = np.exp(1j * (x[:, None, :] * (b * np.arange(j))[:, None])) * g_az
    return (high @ low).reshape(cos_el.size, j * b)[:, :m_h].T


@st.composite
def node_sets(draw):
    """(g_az, sin_az, cos_el) for up to 96 x 96 nodes, as a diffuse cluster's rule gives them."""
    n_az, n_el = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    g_az = draw(arrays(np.float64, n_az, elements=st.floats(0.0, 1.0)))
    sin_az = draw(arrays(np.float64, n_az, elements=st.floats(-1.0, 1.0)))
    return g_az, sin_az, draw(arrays(np.float64, n_el, elements=st.floats(-1.0, 1.0)))


class TestBlockedTables:
    @pytest.mark.parametrize("m_h", M_H_VALUES)
    @settings(max_examples=10)
    @given(spacing=st.floats(0.125, 0.5), nodes=node_sets())
    def test_bits_match_the_all_nodes_tables(self, m_h, spacing, nodes):
        # block 96 holds every elevation node node_sets draws in one block
        geometry = ArrayGeometry(m_h, 1, spacing, 1.0)
        results = {}
        for block in (1, 7, 16, 96):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(holomimo.correlation, "_ELEVATION_BLOCK", block)
                results[block] = np.ascontiguousarray(_horizontal_sums(geometry, *nodes))
        expected = results.pop(96)
        assert expected.shape == (m_h, nodes[2].size)
        for block, sums in results.items():
            assert np.array_equal(bits(sums), bits(expected)), block

    def test_peak_falls_by_a_third(self):
        # one call at M_H = 64 with 96 x 96 nodes, against the all-nodes tables
        rng = np.random.default_rng(3)
        geometry = ArrayGeometry(64, 1, 0.25, 1.0)
        nodes = rng.random(96), rng.uniform(-1.0, 1.0, 96), rng.uniform(0.0, 1.0, 96)
        peaks = []
        for sums in (all_nodes_horizontal_sums, _horizontal_sums):
            sums(geometry, *nodes)  # warm: first-call allocations are not the call's
            tracemalloc.start()
            try:
                sums(geometry, *nodes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] * 2 / 3, peaks


def run_cli(command, out_dir):
    assert main([command, "fig1_desk", "--out", str(out_dir)]) == 0
    stem = {"nmse-sweep": "nmse.json", "eigen-report": "eigen_summary.json"}[command]
    return json.loads((out_dir / f"fig1_desk_{stem}").read_text())


class TestStatisticalAgreement:
    """Preset runs on the shipped table agree with runs on the oracle's."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        shipped, oracle = {}, {}
        for command in ("nmse-sweep", "eigen-report"):
            shipped[command] = run_cli(command, tmp_path_factory.mktemp("shipped"))
            with per_offset_table():
                oracle[command] = run_cli(command, tmp_path_factory.mktemp("oracle"))
        return shipped, oracle

    def test_ranks_are_equal(self, runs):
        shipped, oracle = (run["eigen-report"]["models"] for run in runs)
        assert shipped.keys() == oracle.keys() == {"isotropic", "exact", "approx"}
        for model, summary in shipped.items():
            for key in ("effective_rank", "numerical_rank"):
                assert summary[key] == oracle[model][key], (model, key)

    def test_sweep_agrees(self, runs):
        shipped, oracle = (run["nmse-sweep"] for run in runs)
        assert shipped["truth_model"] == oracle["truth_model"] == "exact"
        assert shipped["container_rank"] == oracle["container_rank"]
        assert shipped["warnings"] == oracle["warnings"]
        assert len(shipped["records"]) == len(oracle["records"]) > 0
        for got, want in zip(shipped["records"], oracle["records"]):
            assert (got["estimator"], got["snr_db"]) == (want["estimator"], want["snr_db"])
            assert got["nmse_mc"] == pytest.approx(want["nmse_mc"], rel=1e-9, abs=0.0)
            assert abs(got["nmse_mc"] - want["nmse_mc"]) < want["nmse_mc_ci95"]
