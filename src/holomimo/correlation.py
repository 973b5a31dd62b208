"""Spatial correlation matrices for uniform planar arrays.

Three builders produce the M x M correlation matrix of the channel seen by a
planar array: a closed form for isotropic scattering, numerical quadrature
for the exact clustered model, and a quadrature-free closed-form
approximation of the clustered model. All three share three structural facts:

* Entry (m, l) depends on the antenna pair only through the normalized grid
  offsets (d_h, d_v), so builders evaluate one value per distinct offset
  (O(M) values). The matrix is two-level Toeplitz: viewed as
  (M_V, M_H, M_V, M_H), it is a sliding window over the offset table, and
  it is filled by one strided copy of that window, with no M x M
  temporary.
* Offset negation conjugates the value, so only offsets with d_h >= 0 (and
  d_v >= 0 when d_h = 0) are evaluated; the rest are exact conjugate mirrors,
  which keeps the stored matrix Hermitian to the last bit.
* Reversing the storage index (m -> M - 1 - m) negates both grid offsets, so
  it conjugates the entry: J R J = conj(R) bit for bit, with J the exchange
  matrix. The matrix is centro-Hermitian, which the spectral layer uses to
  solve it as a real symmetric matrix.

Every builder normalizes the diagonal to the average gain exactly, giving
trace(R) = M * gain without relying on quadrature accuracy.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AccuracyError, NumericalError, UnsupportedModelError
from .geometry import ArrayGeometry
from .scattering import (
    ScatteringConfig,
    _axis_profile,
    _cluster_axes,
    _gauss_legendre,
    cluster_reference_masses,
    deviation_window,
)

_MAGIC = b"HMRC"
_CONTAINER_VERSION = 1
# magic, version, M, gain, provenance code
_HEADER = struct.Struct("<4sIIdB")
# Rows per block in the structural checks and in the container's
# lower-triangle mirror: 4 MB of temporaries per block at M = 1024.
STRUCTURE_CHECK_ROWS = 256

# (azimuth nodes, weighted azimuth profile, elevation nodes, weighted elevation profile)
_ClusterRule = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class MatrixProvenance(enum.IntEnum):
    """How a correlation matrix was produced; stored in the binary container."""

    ISOTROPIC = 0
    EXACT_CLUSTERED = 1
    APPROX_CLUSTERED = 2
    EXTERNAL = 3

    @property
    def label(self) -> str:
        return {
            MatrixProvenance.ISOTROPIC: "isotropic",
            MatrixProvenance.EXACT_CLUSTERED: "exact",
            MatrixProvenance.APPROX_CLUSTERED: "approx",
            MatrixProvenance.EXTERNAL: "external",
        }[self]


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-node quadrature controls for the exact clustered builder.

    Gauss-Legendre rules with `nodes_azimuth` x `nodes_elevation` points are
    applied per cluster over its deviation window, truncated to
    +/- support_radius standard deviations around the lobe peak (the mass
    outside is below 1e-30 for the default radius). Builders verify the rule
    by integrating each cluster's density against an adaptive reference and
    fail if any cluster's mass is off by more than `density_check_tol`.
    """

    nodes_azimuth: int = 96
    nodes_elevation: int = 96
    support_radius: float | None = 12.0
    density_check_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.nodes_azimuth < 2 or self.nodes_elevation < 2:
            raise ValueError("quadrature needs at least 2 nodes per axis")
        if self.support_radius is not None and not self.support_radius > 0:
            raise ValueError("support_radius must be positive or None")
        if not self.density_check_tol > 0:
            raise ValueError("density_check_tol must be positive")


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Hermitian PSD spatial correlation matrix with its construction metadata.

    `entries` is complex128 with exact conjugate symmetry and a real diagonal
    equal to `gain`. Builders' matrices are also centro-Hermitian: reversing
    both indices conjugates an entry, bit for bit. `self_check_error`
    records the worst per-cluster relative quadrature mass error for matrices
    built by numerical integration (None for closed-form builders).
    """

    entries: np.ndarray
    gain: float
    provenance: MatrixProvenance
    self_check_error: float | None = None

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {e.shape}")
        if e.shape[0] == 0:
            raise ValueError("correlation matrix must not be empty")
        if e.dtype != np.complex128:
            raise ValueError(f"correlation matrix must be complex128, got {e.dtype}")
        if not 0 < self.gain < math.inf:
            raise ValueError(f"gain must be finite and positive, got {self.gain}")

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[0]

    def validate(self, psd_tol: float = 1e-10, trace_tol: float = 1e-9) -> None:
        """Check the structural invariants; raises ValueError on violation.

        Verifies finite entries, exact conjugate symmetry, trace equal to
        M * gain within `trace_tol` (relative), a diagonal equal to the gain
        bit for bit (every builder pins it), and eigenvalues no more negative
        than -psd_tol times the largest one. The eigenvalues come from the
        spectral layer's solver and go through its PSD floor with `psd_tol`
        in place of PSD_TOLERANCE. A solver failure raises NumericalError.
        """
        from .spectral import _solve, _spectrum_from  # spectral imports this module

        self._check_structure(trace_tol)
        if not np.all(np.diagonal(self.entries) == self.gain):
            raise ValueError(f"diagonal differs from the gain {self.gain}")
        eigenvalues, _ = _solve(self, vectors=False)
        try:
            _spectrum_from(self, eigenvalues, psd_tol)
        except NumericalError as exc:
            raise ValueError(str(exc)) from exc

    def _check_structure(self, trace_tol: float = 1e-9) -> None:
        """The O(M^2) part of validate(), which load_matrix also runs.

        Checks finiteness, exact Hermitian symmetry, a real nonnegative
        diagonal and the trace; validate() adds the exact diagonal and the
        PSD checks. Works on blocks of STRUCTURE_CHECK_ROWS rows, so its
        temporaries stay O(M) instead of an M x M conjugate transpose. Every
        entry is checked for finiteness before any is compared with its
        mirror.
        """
        e = self.entries
        m = self.num_antennas
        blocks = [slice(a, a + STRUCTURE_CHECK_ROWS) for a in range(0, m, STRUCTURE_CHECK_ROWS)]
        if not all(np.isfinite(e[rows]).all() for rows in blocks):
            raise ValueError("matrix has non-finite entries (NaN or Inf)")
        if not all(np.array_equal(e[rows], e[:, rows].conj().T) for rows in blocks):
            raise ValueError("matrix is not exactly Hermitian")
        diag = np.diagonal(e)
        if np.any(diag.imag != 0.0) or np.any(diag.real < 0.0):
            raise ValueError("diagonal must be real and nonnegative")
        trace = float(diag.real.sum())
        if abs(trace - m * self.gain) > trace_tol * m * self.gain:
            raise ValueError(f"trace {trace} deviates from M*gain {m * self.gain}")

    def _is_centro_hermitian(self) -> bool:
        """Whether reversing both indices conjugates every entry, bit for bit.

        Row block [a, b) is compared with the conjugate of the mirrored block
        [M - b, M - a) read backwards in both axes. The mirror of the first
        half of the rows is the second half, so only the first half is read,
        in blocks of STRUCTURE_CHECK_ROWS rows.
        """
        e, m = self.entries, self.num_antennas
        half = (m + 1) // 2
        starts = range(0, half, STRUCTURE_CHECK_ROWS)
        blocks = [(a, min(a + STRUCTURE_CHECK_ROWS, half)) for a in starts]
        return all(np.array_equal(e[a:b], e[m - b : m - a][::-1, ::-1].conj()) for a, b in blocks)


def _offset_grids(geometry: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Normalized offsets covered by the half-plane evaluation table.

    Returns (d_h, d_v) where d_h has one entry per nonnegative horizontal
    offset, shape (M_H,), and d_v covers all vertical offsets, shape
    (2*M_V - 1,) centered so index M_V - 1 is offset zero.
    """
    s = geometry.spacing_fraction
    d_h = np.arange(geometry.num_horizontal) * s
    d_v = np.arange(-(geometry.num_vertical - 1), geometry.num_vertical) * s
    return d_h, d_v


def _scatter_offsets(geometry: ArrayGeometry, table: np.ndarray) -> np.ndarray:
    """Expand a half-plane offset table into the full M x M matrix.

    `table[h, v]` holds the value at horizontal offset h >= 0 and vertical
    offset v - (M_V - 1); the entries at h = 0, v < M_V - 1 are not read.
    The full (2 M_V - 1) x (2 M_H - 1) table over all offsets is built
    first, O(M): each negative horizontal offset (and zero horizontal,
    negative vertical offset) gets the conjugate of its mirrored value.
    Entry (m, l) is the full-table value at the offset of antenna m from
    antenna l, so the matrix viewed as (M_V, M_H, M_V, M_H) is a sliding
    window over the flipped table, written with one strided copy and no
    M x M temporary. Every entry is a copy of a table value, which makes the
    result Hermitian (given a real zero-offset value) and centro-Hermitian
    bit for bit.

    Raises NumericalError if the table holds NaN or Inf, checked in O(M)
    before the copy: a finite table gives a finite matrix.
    """
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    full = np.empty((2 * m_v - 1, 2 * m_h - 1), dtype=np.complex128)
    full[:, m_h - 1 :] = table.T
    full[: m_v - 1, m_h - 1] = full[::-1, m_h - 1][: m_v - 1].conj()
    full[:, : m_h - 1] = full[::-1, ::-1][:, : m_h - 1].conj()
    if not np.isfinite(full).all():
        raise NumericalError("correlation offset table has non-finite values (NaN or Inf)")
    entries = np.empty((geometry.num_antennas,) * 2, dtype=np.complex128)
    window = np.lib.stride_tricks.sliding_window_view(full[::-1, ::-1].copy(), (m_v, m_h))
    np.copyto(entries.reshape(m_v, m_h, m_v, m_h), window[::-1, ::-1])
    return entries


def build_isotropic(geometry: ArrayGeometry, gain: float = 1.0) -> CorrelationMatrix:
    """Correlation matrix under isotropic scattering, entry gain * sinc(2 r).

    r is the antenna separation in wavelengths; sinc is the normalized
    sin(pi x)/(pi x). Real-valued and exact, no quadrature involved.
    """
    if not gain > 0:
        raise ValueError(f"gain must be positive, got {gain}")
    d_h, d_v = _offset_grids(geometry)
    radius = np.sqrt(d_h[:, None] ** 2 + d_v[None, :] ** 2)
    table = (gain * np.sinc(2.0 * radius)).astype(np.complex128)
    return CorrelationMatrix(
        entries=_scatter_offsets(geometry, table),
        gain=gain,
        provenance=MatrixProvenance.ISOTROPIC,
    )


def _diffuse_rules(
    config: ScatteringConfig, quadrature: QuadratureSpec
) -> dict[int, _ClusterRule]:
    """The fixed-node rule of every diffuse cluster with power, by cluster index.

    Maps the cached Gauss-Legendre rule onto each of the cluster's two
    deviation windows and weights the axis profile, from the scattering
    module's one axis routine, at the mapped nodes.
    """
    orders = (quadrature.nodes_azimuth, quadrature.nodes_elevation)
    rules = {}
    for n, cluster in enumerate(config.clusters):
        if cluster.power == 0.0 or cluster.specular:
            continue
        rule = []
        for order, (nominal, exponent, sigma) in zip(orders, _cluster_axes(config, n)):
            x, w = _gauss_legendre(order)
            lo, hi = deviation_window(nominal, sigma, quadrature.support_radius)
            half = (hi - lo) / 2.0
            nodes = (lo + hi) / 2.0 + half * x
            rule += [nodes, _axis_profile(nominal, exponent, sigma, nodes) * (half * w)]
        rules[n] = tuple(rule)
    return rules


def _mass_errors(
    config: ScatteringConfig,
    rules: dict[int, _ClusterRule],
    reference: np.ndarray,
) -> np.ndarray:
    """Relative error of each cluster's rule mass against its reference, shape (N,).

    Specular point masses are exact, and clusters with zero power or zero
    reference mass report zero.
    """
    errors = np.zeros_like(reference)
    for n, (_, g_az, _, g_el) in rules.items():
        if reference[n] > 0.0:
            mass = config.clusters[n].power * float(g_az.sum()) * float(g_el.sum())
            errors[n] = mass / reference[n] - 1.0
    return errors


def quadrature_self_check(
    config: ScatteringConfig, quadrature: QuadratureSpec | None = None
) -> np.ndarray:
    """Relative error of each cluster's quadrature mass, shape (N,).

    Integrates every cluster density with the fixed-node rule the exact
    builder uses and compares against an adaptive reference; the builder
    checks the same numbers. Values near zero mean the rule resolves the
    density; clusters with zero power report zero.
    """
    quadrature = quadrature or QuadratureSpec()
    reference = cluster_reference_masses(config)
    return _mass_errors(config, _diffuse_rules(config, quadrature), reference)


def build_exact_clustered(
    geometry: ArrayGeometry,
    scattering: ScatteringConfig,
    quadrature: QuadratureSpec | None = None,
) -> CorrelationMatrix:
    """Correlation matrix of the clustered model by per-cluster 2-D quadrature.

    Each cluster's contribution to an offset value is a double integral of
    the plane-wave phase against its density. The elevation-dependent factors
    separate, so the integral is evaluated as a weighted tensor contraction
    over the two axis rules rather than a generic 2-D sum. Densities are
    handled in peak-referenced form and the final matrix is scaled so the
    diagonal equals the gain exactly, which cancels the peak factor and the
    mixture normalization without ever forming either.

    Raises AccuracyError when the fixed-node rule fails the per-cluster mass
    self-check, which is the symptom of an under-resolved angular spread.
    """
    quadrature = quadrature or QuadratureSpec()
    reference = cluster_reference_masses(scattering)
    rules = _diffuse_rules(scattering, quadrature)
    errors = _mass_errors(scattering, rules, reference)
    worst = int(np.argmax(np.abs(errors)))
    if abs(errors[worst]) > quadrature.density_check_tol:
        raise AccuracyError(
            f"quadrature mass self-check failed: cluster {worst} relative error "
            f"{errors[worst]:.3e} exceeds {quadrature.density_check_tol:.1e}; "
            f"increase nodes_azimuth/nodes_elevation (currently "
            f"{quadrature.nodes_azimuth}x{quadrature.nodes_elevation})"
        )

    d_h, d_v = _offset_grids(geometry)
    table = np.zeros((d_h.size, d_v.size), dtype=np.complex128)
    for n, cluster in enumerate(scattering.clusters):
        if cluster.power == 0.0:
            continue
        if cluster.specular:
            # A point mass is exact: its reference mass is its rule mass.
            sin_az_cos_el = np.sin(cluster.azimuth) * np.cos(cluster.elevation)
            sin_el = np.sin(cluster.elevation)
            table += reference[n] * np.exp(
                2j * np.pi * (d_h[:, None] * sin_az_cos_el + d_v[None, :] * sin_el)
            )
            continue

        az_nodes, g_az, el_nodes, g_el = rules[n]
        sin_az = np.sin(cluster.azimuth + az_nodes)
        cos_el = np.cos(cluster.elevation + el_nodes)
        sin_el = np.sin(cluster.elevation + el_nodes)
        # Horizontal phase couples both deviations through sin(az) * cos(el).
        phase_h = np.exp(
            2j * np.pi * d_h[:, None, None] * (sin_az[None, :, None] * cos_el[None, None, :])
        )
        partial = np.einsum("d,hde->he", g_az.astype(np.complex128), phase_h)
        phase_v = np.exp(2j * np.pi * d_v[:, None] * sin_el[None, :])
        table += cluster.power * (partial * g_el[None, :]) @ phase_v.T

    # table[0, center] is the total mass; dividing by it normalizes the
    # mixture and puts the diagonal (hence the trace) at the gain.
    total = table[0, geometry.num_vertical - 1].real
    entries = _scatter_offsets(geometry, (scattering.gain / total) * table)
    # (gain / total) * total can round 1 ulp off the gain; pin it exactly.
    np.fill_diagonal(entries, scattering.gain)
    return CorrelationMatrix(
        entries=entries,
        gain=scattering.gain,
        provenance=MatrixProvenance.EXACT_CLUSTERED,
        self_check_error=float(errors[worst]),
    )


def build_approx_clustered(
    geometry: ArrayGeometry, scattering: ScatteringConfig
) -> CorrelationMatrix:
    """Closed-form approximation of the clustered correlation matrix.

    Linearizes each cluster's phase around its nominal angles and integrates
    the von Mises lobes analytically (small-deviation regime), reducing every
    entry to elementary functions of the antenna offsets. Cost is O(M) per
    cluster on the deduplicated offset table versus the exact builder's
    quadrature; accuracy degrades as angular spreads grow.

    The approximation has no specular limit; configs with specular clusters
    are rejected in favor of build_exact_clustered.
    """
    if scattering.has_specular:
        raise UnsupportedModelError(
            "closed-form approximation does not support specular clusters; "
            "use build_exact_clustered"
        )
    a = scattering.directivity_a
    b = scattering.directivity_b
    var_az = scattering.sigma_azimuth**2
    var_el = scattering.sigma_elevation**2
    d_h, d_v = _offset_grids(geometry)
    d_h = d_h[:, None]
    d_v = d_v[None, :]

    numerator = np.zeros((d_h.size, d_v.shape[1]), dtype=np.complex128)
    denominator = 0.0
    for cluster in scattering.clusters:
        if cluster.power == 0.0:
            continue
        cos_az = np.cos(cluster.azimuth)
        sin_az = np.sin(cluster.azimuth)
        cos_el = np.cos(cluster.elevation)
        sin_el = np.sin(cluster.elevation)
        cos_az_a = cos_az**a if a > 0 else 1.0
        cos_az_da = a * cos_az ** (a - 1) if a > 0 else 0.0
        cos_el_b = cos_el**b if b > 0 else 1.0
        cos_el_b1 = cos_el_b * cos_el
        denominator += cluster.power * cos_az_a * cos_el_b1

        anchor = np.exp(2j * np.pi * (d_h * sin_az * cos_el + d_v * sin_el))
        b_h = 2 * np.pi * d_h * cos_az * cos_el
        c_h = -2 * np.pi * d_h * cos_az * sin_el
        d_mix = -2 * np.pi * d_h * sin_az * sin_el + 2 * np.pi * d_v * cos_el
        var_eff = var_az / (1.0 + c_h**2 * var_az * var_el)

        magnitude = np.sqrt(var_eff / var_az) * np.exp(
            -0.5 * b_h**2 * var_eff
            + 0.5 * d_mix**2 * var_el * (c_h**2 * var_el * var_eff - 1.0)
        )
        twist = np.exp(-1j * b_h * c_h * d_mix * var_el * var_eff)
        x_term = cos_az_a * (cos_el_b1 - 1j * (b + 1) * cos_el_b * sin_el * var_el * d_mix)
        y_term = cos_az_da * sin_az * cos_el_b1 + 1j * var_el * (b + 1) * cos_el_b * sin_el * (
            cos_az_a * c_h - cos_az_da * sin_az * d_mix
        )
        bracket = x_term - y_term * (1j * b_h * var_eff - c_h * d_mix * var_el * var_eff)
        numerator += cluster.power * anchor * magnitude * twist * bracket

    table = (scattering.gain / denominator) * numerator
    entries = _scatter_offsets(geometry, table)
    # The closed form returns exactly the gain at zero offset; pin it to
    # remove the last-ulp wobble between the two accumulation orders.
    np.fill_diagonal(entries, scattering.gain)
    return CorrelationMatrix(
        entries=entries,
        gain=scattering.gain,
        provenance=MatrixProvenance.APPROX_CLUSTERED,
    )


def correlation_matrix_distance(first: CorrelationMatrix, second: CorrelationMatrix) -> float:
    """Correlation matrix distance in [0, 1]; 0 for equal, 1 for orthogonal.

    Computes 1 - tr(R1 R2) / (||R1||_F ||R2||_F); the trace is real for
    Hermitian inputs. Raises ValueError on shape mismatch or zero matrices.
    """
    a = first.entries
    b = second.entries
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("correlation matrix distance is undefined for zero matrices")
    inner = float(np.real(np.vdot(a, b)))
    return max(0.0, 1.0 - inner / (norm_a * norm_b))


def save_matrix(path: str | Path, matrix: CorrelationMatrix) -> Path:
    """Write a correlation matrix to the binary container format.

    Layout: magic "HMRC", u32 version, u32 M, f64 gain, u8 provenance code,
    then the upper triangle (row-major, diagonal included) as little-endian
    complex128. Exact roundtrip; the lower triangle is implied by symmetry.
    Streams the header and then each row's upper-triangle slice to the open
    file, so it allocates nothing of size M^2.
    """
    path = Path(path)
    m = matrix.num_antennas
    with path.open("wb") as f:
        f.write(_HEADER.pack(_MAGIC, _CONTAINER_VERSION, m, matrix.gain, int(matrix.provenance)))
        for row in range(m):
            f.write(np.ascontiguousarray(matrix.entries[row, row:], dtype="<c16"))
    return path


def load_matrix(path: str | Path) -> CorrelationMatrix:
    """Read a correlation matrix written by save_matrix and revalidate it.

    Runs CorrelationMatrix._check_structure, every check of validate() but
    the exact diagonal and the O(M^3) PSD check, so a diagonal within the
    trace tolerance of the gain still loads (the benchmark's export check
    bounds it by rounding instead). Raises ValueError on a malformed or
    tampered container. The file size is checked against the header's M
    before anything is allocated.
    Each upper-triangle row is then read straight into the result, and the
    lower triangle is mirrored in blocks of STRUCTURE_CHECK_ROWS rows, so
    the only M x M array is the result itself.
    """
    with Path(path).open("rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a correlation matrix container")
        _, version, m, gain, code = _HEADER.unpack(header)
        if version != _CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        provenance = MatrixProvenance(code)
        expected = _HEADER.size + m * (m + 1) // 2 * 16
        size = Path(path).stat().st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes for M={m}, got {size}")
        entries = np.empty((m, m), dtype="<c16")
        for row in range(m):
            if f.readinto(entries[row, row:]) != 16 * (m - row):
                raise ValueError(f"{path}: payload ended before row {row}")
    for start in range(0, m, STRUCTURE_CHECK_ROWS):
        stop = min(start + STRUCTURE_CHECK_ROWS, m)
        upper = entries[start:stop, start:]
        entries[stop:, start:stop] = upper[:, stop - start :].conj().T
        lower = np.tri(stop - start, k=-1, dtype=bool)
        np.copyto(entries[start:stop, start:stop], upper[:, : stop - start].conj().T, where=lower)
    matrix = CorrelationMatrix(entries.astype(np.complex128, copy=False), gain, provenance)
    matrix._check_structure()
    return matrix


def export_matrix_csv(path: str | Path, matrix: CorrelationMatrix) -> Path:
    """Write entries as CSV with real/imaginary parts in alternating columns.

    Row m holds re(R[m,0]), im(R[m,0]), re(R[m,1]), ... Full float64
    precision per value, but the container metadata (gain, provenance) is not
    carried; prefer save_matrix for machine consumption. Rows are formatted
    from a float64 view of the complex entries (re and im are adjacent in
    memory), so no M x 2M copy is made.
    """
    path = Path(path)
    flat = np.ascontiguousarray(matrix.entries).view(np.float64)
    header = "columns alternate re/im per antenna index; row = first antenna of the pair"
    np.savetxt(path, flat, delimiter=",", fmt="%.17g", header=header)
    return path
