"""Matrix assembly and container I/O: bit identity with the previous code, memory budgets.

The oracles below are the previous implementations, kept here verbatim in
behaviour: the fancy-index expansion of the offset table, the
`triu_indices` container writer and the M x 2M CSV writer. The new code
must match them bit for bit and byte for byte while allocating no M x M
temporary, which the tracemalloc budgets check. A builder's matrix is
backed by its offset table, its only source, and the writers always stream
its rows from the table; TestTableBackedMatrix, TestStreamedExportBudget
and TestStreamedCli check that they never form the dense matrix on that path.
The spectral layer and the correlation matrix distance read the table too;
TestSpectralBudget and TestStreamedCli check that solving and comparing
builders' matrices never form it either. TestSpectralBudget also bounds
the eigenvectors kept and the Monte Carlo sweep that reads them.
"""

import json
import math
import struct
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holomimo.correlation
from holomimo import (
    ArrayGeometry,
    CorrelationMatrix,
    Cluster,
    Estimator,
    MatrixProvenance,
    NumericalError,
    ScatteringConfig,
    build_approx_clustered,
    build_exact_clustered,
    build_isotropic,
    correlation_matrix_distance,
    eigendecompose,
    export_matrix_csv,
    load_config,
    load_matrix,
    monte_carlo_nmse,
    quadrature_self_check,
    save_matrix,
    spectrum,
    subspace_containment_residual,
)
from holomimo.cli import main, resolve_config_path
from holomimo.correlation import STRUCTURE_CHECK_ROWS, _assemble, _expand, _full_offsets
from holomimo.estimation import MC_BLOCK_TRIALS
from holomimo.geometry import grid_indices
from holomimo.harness import run_export_matrix

PRESETS = ["fig1_desk", "fig2_desk", "fig3_desk", "fig4_desk"]

SCATTERING = ScatteringConfig(
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


def fancy_index_expansion(geometry, table):
    """The original offset-table expansion: int64 offset grids, a mirror mask, a gather."""
    i, j = grid_indices(geometry)
    di = i[:, None] - i[None, :]
    dj = j[:, None] - j[None, :]
    mirror = (di < 0) | ((di == 0) & (dj < 0))
    row = np.where(mirror, -di, di)
    col = np.where(mirror, -dj, dj) + (geometry.num_vertical - 1)
    values = table[row, col]
    return np.where(mirror, values.conj(), values)


def triu_indices_save(path, matrix):
    """The previous save_matrix: header, then the gathered upper triangle."""
    m = matrix.num_antennas
    header = (
        b"HMRC"
        + struct.pack("<I", 1)
        + struct.pack("<I", m)
        + struct.pack("<d", matrix.gain)
        + struct.pack("<B", int(matrix.provenance))
    )
    rows, cols = np.triu_indices(m)
    payload = np.ascontiguousarray(matrix.entries[rows, cols], dtype="<c16")
    path.write_bytes(header + payload.tobytes())
    return path


def interleaved_copy_csv(path, matrix):
    """The previous export_matrix_csv: an M x 2M float copy handed to savetxt."""
    m = matrix.num_antennas
    flat = np.empty((m, 2 * m))
    flat[:, 0::2] = matrix.entries.real
    flat[:, 1::2] = matrix.entries.imag
    header = "columns alternate re/im per antenna index; row = first antenna of the pair"
    np.savetxt(path, flat, delimiter=",", fmt="%.17g", header=header)
    return path


def bits(entries):
    return entries.view(np.uint64)


def traced_peak(call):
    """(result of call(), tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def preset_matrices(name):
    config = load_config(resolve_config_path(name))
    geometry, scattering = config.geometry, config.scattering
    return {
        "isotropic": build_isotropic(geometry, 1.5),
        "exact": build_exact_clustered(geometry, scattering, config.quadrature),
        "approx": build_approx_clustered(geometry, scattering),
    }


def fortran_order(matrix):
    return CorrelationMatrix(
        np.asfortranarray(matrix.entries), matrix.gain, matrix.provenance, matrix.self_check_error
    )


def is_streamed(matrix):
    """Whether the matrix has never formed its dense entries."""
    return matrix._entries is None


def forbidden_expansion(geometry, offsets):
    raise AssertionError("the dense M x M matrix was formed")


@pytest.fixture
def no_dense_expansion(monkeypatch):
    """Fail any formation of a table-backed matrix's dense entries."""
    monkeypatch.setattr(holomimo.correlation, "_expand", forbidden_expansion)


@st.composite
def offset_tables(draw):
    """(geometry, half-plane table, gain) with a positive zero-offset value."""
    m_h, m_v = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    finite = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    table = draw(arrays(np.complex128, (m_h, 2 * m_v - 1), elements=finite)).copy()
    table[0, m_v - 1] = draw(st.floats(1e-3, 1e3))
    return ArrayGeometry(m_h, m_v, 0.3, 1.0), table, draw(st.floats(1e-3, 1e3))


def ramp_table(m_h, m_v):
    """A table with a distinct value at every offset, for the explicit examples."""
    table = np.arange(m_h * (2 * m_v - 1)).reshape(m_h, 2 * m_v - 1) * (0.5 - 0.25j)
    table[0, m_v - 1] = 7.0
    return ArrayGeometry(m_h, m_v, 0.3, 1.0), table, 2.5


def with_edge_cases(**fixed):
    """Always try the 1 x 1, 1 x N, N x 1 and largest arrays too, with `fixed` arguments."""

    def decorate(test):
        for shape in [(1, 1), (1, 13), (13, 1), (13, 13)]:
            test = example(case=ramp_table(*shape), **fixed)(test)
        return test

    return decorate


def assemble(case):
    geometry, table, gain = case
    return _assemble(geometry, table, gain, MatrixProvenance.EXACT_CLUSTERED, 1e-9)


def export_config(tmp_path, m_h, m_v):
    """The fig2_desk preset with its geometry resized to m_h x m_v."""
    raw = json.loads(resolve_config_path("fig2_desk").read_text())
    raw["geometry"].update(m_h=m_h, m_v=m_v)
    path = tmp_path / "resized.json"
    path.write_text(json.dumps(raw))
    return load_config(path)


@pytest.fixture
def poisoned_offsets(monkeypatch):
    """Make the most negative vertical offset NaN in every builder's table."""
    offset_grids = holomimo.correlation._offset_grids

    def poisoned(geometry):
        d_h, d_v = offset_grids(geometry)
        d_v[0] = math.nan
        return d_h, d_v

    monkeypatch.setattr(holomimo.correlation, "_offset_grids", poisoned)


class TestStridedAssembly:
    @settings(max_examples=200)
    @given(data=st.data(), m_h=st.integers(1, 9), m_v=st.integers(1, 9))
    def test_matches_fancy_index_expansion(self, data, m_h, m_v):
        finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
        table = data.draw(arrays(np.complex128, (m_h, 2 * m_v - 1), elements=finite))
        geometry = ArrayGeometry(m_h, m_v, 0.3, 1.0)
        entries = _expand(geometry, _full_offsets(geometry, table))
        assert entries.shape == (m_h * m_v,) * 2
        assert np.array_equal(bits(entries), bits(fancy_index_expansion(geometry, table)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize(
        "index",
        [(0, 4), (0, 6), (4, 0), (4, 8), (2, 3)],
        ids=["zero_offset", "vertical_edge", "far_corner", "near_corner", "inner"],
    )
    def test_non_finite_table_raises(self, index, value):
        geometry = ArrayGeometry(5, 5, 0.3, 1.0)
        table = np.ones((5, 9), dtype=np.complex128)
        table[index] = value
        with pytest.raises(NumericalError, match="non-finite"):
            _full_offsets(geometry, table)

    @pytest.mark.parametrize("builder", ["isotropic", "exact", "approx"])
    def test_builders_raise_on_non_finite_offsets(self, builder, poisoned_offsets):
        geometry = ArrayGeometry(3, 2, 0.3, 1.0)
        with pytest.raises(NumericalError, match="non-finite"):
            if builder == "isotropic":
                build_isotropic(geometry)
            elif builder == "exact":
                build_exact_clustered(geometry, SCATTERING)
            else:
                build_approx_clustered(geometry, SCATTERING)

    def test_cli_exits_2_on_non_finite_offsets(self, tmp_path, poisoned_offsets, capsys):
        code = main(["export-matrix", "fig1_desk", "--out", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["fig1_desk", "fig2_desk", "fig3_desk", "fig4_desk"])
    def test_builders_guarantee_structure(self, preset):
        # finite by the table check, Hermitian and a diagonal equal to the
        # gain by construction (test_builders_are_centro_hermitian covers J R J)
        for matrix in preset_matrices(preset).values():
            e = matrix.entries
            assert np.isfinite(e).all()
            assert np.array_equal(e, e.conj().T)
            assert np.array_equal(np.diagonal(e), np.full(matrix.num_antennas, matrix.gain + 0j))


class TestTableBackedMatrix:
    """Random finite tables over M_H, M_V in 1..13, with 1 x 1, 1 x N and N x 1 always tried."""

    CASES = settings(max_examples=150, deadline=None)

    @CASES
    @with_edge_cases()
    @given(case=offset_tables())
    def test_streamed_writers_match_the_dense_oracles(self, tmp_path_factory, case):
        out = tmp_path_factory.mktemp("streamed")
        streamed, dense = assemble(case), assemble(case)
        save_matrix(out / "new.hmrc", streamed)
        export_matrix_csv(out / "new.csv", streamed)
        assert is_streamed(streamed)
        triu_indices_save(out / "old.hmrc", dense)
        interleaved_copy_csv(out / "old.csv", dense)
        assert (out / "new.hmrc").read_bytes() == (out / "old.hmrc").read_bytes()
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @CASES
    @with_edge_cases()
    @given(case=offset_tables())
    def test_entries_match_the_fancy_index_expansion(self, case):
        geometry, table, gain = case
        matrix = assemble(case)
        assert matrix.num_antennas == geometry.num_antennas
        assert is_streamed(matrix)
        mass = table[0, geometry.num_vertical - 1].real
        expected = fancy_index_expansion(geometry, (gain / mass) * table)
        np.fill_diagonal(expected, gain)
        assert np.array_equal(bits(matrix.entries), bits(expected))
        assert np.array_equal(np.diagonal(matrix.entries), np.full(matrix.num_antennas, gain + 0j))
        assert matrix.entries is matrix.entries  # formed once, then kept

    @CASES
    @with_edge_cases(position=(0.5, 1.0))
    @given(case=offset_tables(), position=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_edits_raise_and_the_table_is_what_is_saved(self, tmp_path_factory, case, position):
        # assigning into one entry, picked by `position`, raises after a read,
        # and the container still holds the table's bytes
        out = tmp_path_factory.mktemp("edited")
        matrix = assemble(case)
        m = matrix.num_antennas
        row = min(int(position[0] * m), m - 1)
        column = min(row + int(position[1] * (m - row)), m - 1)
        kept = matrix.entries[row, column]
        with pytest.raises(ValueError, match="read-only"):
            matrix.entries[row, column] = kept + (1.0 + 2.0j)
        save_matrix(out / "new.hmrc", matrix)
        triu_indices_save(out / "old.hmrc", assemble(case))
        assert (out / "new.hmrc").read_bytes() == (out / "old.hmrc").read_bytes()
        payload = np.frombuffer((out / "new.hmrc").read_bytes()[21:], dtype="<c16")
        assert payload[row * m - row * (row - 1) // 2 + column - row] == kept

    @pytest.mark.parametrize("builder", ["isotropic", "exact", "approx"])
    def test_validate_reads_the_table(self, monkeypatch, builder):
        geometry = ArrayGeometry(5, 4, 0.3, 1.0)
        if builder == "isotropic":
            matrix = build_isotropic(geometry, SCATTERING.gain)
        elif builder == "exact":
            matrix = build_exact_clustered(geometry, SCATTERING)
        else:
            matrix = build_approx_clustered(geometry, SCATTERING)
        monkeypatch.setattr(holomimo.correlation, "_expand", forbidden_expansion)
        matrix.validate()
        assert is_streamed(matrix)
        # the table's zero offset is the whole diagonal: 1 ulp off the gain fails
        matrix._offsets[3, 4] = math.nextafter(SCATTERING.gain, math.inf)
        with pytest.raises(ValueError, match="diagonal"):
            matrix.validate()
        assert is_streamed(matrix)

    def test_is_read_only(self):
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        with pytest.raises(AttributeError):
            matrix.gain = 2.0

    @pytest.mark.parametrize("dense", [False, True], ids=["builder", "dense"])
    @pytest.mark.parametrize("name", ["gain", "_offsets", "_entries", "geometry"])
    def test_attributes_cannot_be_deleted(self, dense, name):
        matrix = build_isotropic(ArrayGeometry(2, 2, 0.25, 1.0))
        if dense:
            matrix = CorrelationMatrix(matrix.entries.copy(), matrix.gain, matrix.provenance)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(matrix, name)
        assert spectrum(matrix).num_antennas == 4

    def test_dense_matrix_has_no_geometry(self):
        matrix = CorrelationMatrix(np.eye(3, dtype=np.complex128), 1.0, MatrixProvenance.EXTERNAL)
        assert matrix.geometry is None
        assert matrix.num_antennas == 3


class TestStreamedContainer:
    @pytest.mark.parametrize("preset", ["fig1_desk", "fig3_desk"])
    def test_save_matches_triu_indices_writer(self, tmp_path, preset):
        for label, matrix in preset_matrices(preset).items():
            for layout, m in [("c", matrix), ("f", fortran_order(matrix))]:
                new = save_matrix(tmp_path / f"{label}_{layout}_new.hmrc", m)
                old = triu_indices_save(tmp_path / f"{label}_{layout}_old.hmrc", m)
                assert new.read_bytes() == old.read_bytes(), (label, layout)

    def test_roundtrip_across_mirror_blocks(self, tmp_path):
        # M = 2 * STRUCTURE_CHECK_ROWS + 7: full blocks and a partial last block
        geometry = ArrayGeometry(3, (2 * STRUCTURE_CHECK_ROWS + 7) // 3, 0.3, 1.0)
        matrix = build_exact_clustered(geometry, SCATTERING)
        path = triu_indices_save(tmp_path / "blocks.hmrc", matrix)
        loaded = load_matrix(path)
        assert np.array_equal(bits(loaded.entries), bits(matrix.entries))
        assert loaded.entries.flags.c_contiguous

    @pytest.mark.parametrize(
        "m, payload_bytes",
        [(65535, 0), (65535, 16 * 100), (3, 16 * 6 + 16), (3, 16 * 6 - 8)],
        ids=["huge_header_only", "huge_truncated", "extended", "truncated"],
    )
    def test_size_is_checked_before_allocating(self, tmp_path, m, payload_bytes):
        path = tmp_path / "sized.hmrc"
        header = b"HMRC" + struct.pack("<IIdB", 1, m, 1.0, int(MatrixProvenance.EXTERNAL))
        assert len(header) == 21
        path.write_bytes(header + bytes(payload_bytes))

        def load():
            with pytest.raises(ValueError, match="bytes"):
                load_matrix(path)

        _, peak = traced_peak(load)
        assert peak < 2**20


class TestMemoryBudget:
    """Peaks against B = 16 M^2, the bytes of one complex M x M matrix, at M = 1536."""

    GEOMETRY = ArrayGeometry(32, 48, 0.25, 1.0)
    B = 16 * GEOMETRY.num_antennas**2

    def test_build_isotropic(self):
        matrix, peak = traced_peak(lambda: build_isotropic(self.GEOMETRY))
        assert matrix.num_antennas == 1536
        assert peak <= 1.05 * self.B

    def test_build_exact_clustered(self):
        # the horizontal phase tables are O((B + J) N_az N_el), never
        # M_H x N_az x N_el, so the matrix itself is nearly the whole peak
        config = load_config(resolve_config_path("fig2_desk"))
        build = lambda: build_exact_clustered(self.GEOMETRY, config.scattering, config.quadrature)
        matrix, peak = traced_peak(build)
        assert matrix.num_antennas == 1536
        assert peak <= 1.10 * self.B

    def test_save_and_load(self, tmp_path):
        matrix = build_isotropic(self.GEOMETRY)
        path, save_peak = traced_peak(lambda: save_matrix(tmp_path / "budget.hmrc", matrix))
        assert save_peak <= 0.05 * self.B
        loaded, load_peak = traced_peak(lambda: load_matrix(path))
        assert load_peak <= 1.25 * self.B
        assert np.array_equal(loaded.entries, matrix.entries)


class TestStreamedExportBudget:
    """Export peaks against B = 16 M^2 at M = 1536: streamed, they hold no M x M array."""

    B = TestMemoryBudget.B

    @pytest.fixture
    def config(self, tmp_path):
        """fig2_desk at 32 x 48, its rules computed once before any tracing.

        That first run imports numpy.polynomial and fills the Gauss-Legendre
        cache (0.018 B here), state a process builds once, not export memory.
        """
        geometry = TestMemoryBudget.GEOMETRY
        config = export_config(tmp_path, geometry.num_horizontal, geometry.num_vertical)
        quadrature_self_check(config.scattering, config.quadrature)
        return config

    def test_build_and_save(self, tmp_path, config, no_dense_expansion):
        def build_and_save():
            matrix = build_exact_clustered(config.geometry, config.scattering, config.quadrature)
            return save_matrix(tmp_path / "budget.hmrc", matrix)

        path, peak = traced_peak(build_and_save)
        assert path.stat().st_size == 21 + 16 * 1536 * 1537 // 2
        assert peak <= 0.10 * self.B

    @pytest.mark.parametrize("write_csv", [False, True], ids=["container", "csv"])
    def test_run_export_matrix(self, tmp_path, config, write_csv, no_dense_expansion):
        export = lambda: run_export_matrix(config, tmp_path / "out", write_csv=write_csv)
        (manifest, paths), peak = traced_peak(export)
        assert manifest["num_antennas"] == 1536
        assert len(paths) == 1 + write_csv
        assert peak <= 0.10 * self.B


class TestSpectralBudget:
    """Spectral peaks against B at M = 1536: solves and distances read the offset table.

    The real form is one float64 M x M array (B / 2) and the isotropic
    parity blocks two of about a quarter of it (B / 4), freed once solved;
    eigenvectors add the solver's real columns (B / 2, or B / 4 in parity
    blocks), of which the basis keeps only the numerical rank's (531 of
    1536 for the exact model, 733 for the isotropic one). No complex
    columns are formed: the basis forms them where `eigenvectors` is read.
    The Monte Carlo sweep and the containment residual hold the
    container's projection, M x r values (RS-LS reads its residual off the
    coordinates): one complex array for a raw container, and for a typed
    one real in the truth's frame, two half-height arrays never stacked
    into an M-row copy. The sweep holds no conjugate copy of a basis.
    """

    B = TestMemoryBudget.B

    @pytest.fixture(scope="class")
    def matrices(self):
        geometry = TestMemoryBudget.GEOMETRY
        config = load_config(resolve_config_path("fig2_desk"))
        return {
            "exact": build_exact_clustered(geometry, config.scattering, config.quadrature),
            "isotropic": build_isotropic(geometry),
        }

    @pytest.mark.parametrize(
        "solve, model, budget",
        [
            (spectrum, "exact", 0.60),
            (spectrum, "isotropic", 0.35),
            (eigendecompose, "exact", 1.10),
            (eigendecompose, "isotropic", 0.55),
        ],
        ids=["spectrum-exact", "spectrum-isotropic", "eigendecompose-exact", "eigendecompose-isotropic"],
    )
    def test_solve(self, matrices, solve, model, budget, no_dense_expansion):
        result, peak = traced_peak(lambda: solve(matrices[model]))
        assert result.num_antennas == 1536
        assert peak <= budget * self.B

    def test_monte_carlo_nmse(self, matrices):
        # the raw container is projected with complex products, the typed one
        # (the isotropic EigenBasis) with real ones in the truth's frame
        truth, iso = eigendecompose(matrices["exact"]), eigendecompose(matrices["isotropic"])
        for container, budget in ((iso.eigenvectors[:, : iso.numerical_rank], 0.85), (iso, 0.50)):
            sweep = lambda: monte_carlo_nmse(
                truth,
                tuple(Estimator),
                snr=[0.1, 10.0],
                trials=MC_BLOCK_TRIALS + 1,
                seed=1,
                container_subspace=container,
            )
            grid, peak = traced_peak(sweep)
            assert len(grid) == 2 and all(len(point) == len(Estimator) for point in grid)
            assert peak <= budget * self.B

    def test_subspace_containment_residual(self, matrices):
        # the exact model's columns projected off the isotropic container's
        # two parity blocks: two real half-height arrays, reduced to norms
        # apart and never stacked into an M-row copy
        truth, iso = eigendecompose(matrices["exact"]), eigendecompose(matrices["isotropic"])
        residual, peak = traced_peak(lambda: subspace_containment_residual(iso, truth))
        assert 0.0 <= residual < 1e-6
        assert peak <= 0.16 * self.B

    def test_correlation_matrix_distance(self, matrices, no_dense_expansion):
        distance, peak = traced_peak(
            lambda: correlation_matrix_distance(matrices["exact"], matrices["isotropic"])
        )
        assert 0.0 < distance < 1.0
        assert peak <= 0.05 * self.B


class TestStreamedCli:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_export_matrix_matches_dense_oracles(self, tmp_path, monkeypatch, preset):
        with monkeypatch.context() as patched:
            patched.setattr(holomimo.correlation, "_expand", forbidden_expansion)
            assert main(["export-matrix", preset, "--out", str(tmp_path / "plain")]) == 0
            assert main(["export-matrix", preset, "--csv", "--out", str(tmp_path / "csv")]) == 0
        config = load_config(resolve_config_path(preset))
        matrix = build_exact_clustered(config.geometry, config.scattering, config.quadrature)
        container = triu_indices_save(tmp_path / "oracle.hmrc", matrix).read_bytes()
        view = interleaved_copy_csv(tmp_path / "oracle.csv", matrix).read_bytes()
        stem = tmp_path / "plain" / f"{preset}_exact"
        assert stem.with_suffix(".hmrc").read_bytes() == container
        stem = tmp_path / "csv" / f"{preset}_exact"
        assert stem.with_suffix(".hmrc").read_bytes() == container
        assert stem.with_suffix(".csv").read_bytes() == view

    @pytest.mark.parametrize("preset", PRESETS)
    def test_spectra_and_distances_form_no_dense_matrix(self, tmp_path, monkeypatch, preset):
        commands = ["eigen-report", "nmse-sweep", "approx-validate"]
        for run in ("patched", "plain"):
            with monkeypatch.context() as patched:
                if run == "patched":
                    patched.setattr(holomimo.correlation, "_expand", forbidden_expansion)
                for command in commands:
                    assert main([command, preset, "--out", str(tmp_path / run)]) == 0
        names = sorted(path.name for path in (tmp_path / "plain").iterdir())
        assert len(names) >= 6
        assert names == sorted(path.name for path in (tmp_path / "patched").iterdir())
        for name in names:
            patched, plain = tmp_path / "patched" / name, tmp_path / "plain" / name
            assert patched.read_bytes() == plain.read_bytes(), name


class TestStreamedCsv:
    def test_matches_interleaved_copy_writer(self, tmp_path):
        for label, matrix in preset_matrices("fig1_desk").items():
            for layout, m in [("c", matrix), ("f", fortran_order(matrix))]:
                new = export_matrix_csv(tmp_path / f"{label}_{layout}_new.csv", m)
                old = interleaved_copy_csv(tmp_path / f"{label}_{layout}_old.csv", m)
                assert new.read_bytes() == old.read_bytes(), (label, layout)

    def test_makes_no_interleaved_copy(self, tmp_path):
        matrix = build_exact_clustered(ArrayGeometry(16, 16, 0.25, 1.0), SCATTERING)
        _, peak = traced_peak(lambda: export_matrix_csv(tmp_path / "m.csv", matrix))
        assert peak < 0.5 * 16 * matrix.num_antennas**2
