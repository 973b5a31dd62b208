"""Spatial correlation matrices for uniform planar arrays.

Three builders produce the M x M correlation matrix of the channel seen by a
planar array: a closed form for isotropic scattering, numerical quadrature
for the exact clustered model, and a quadrature-free closed-form
approximation of the clustered model. All three share two structural facts:

* Entry (m, l) depends on the antenna pair only through the normalized grid
  offsets (d_h, d_v), so builders evaluate one value per distinct offset
  (O(M) values) and scatter them into the matrix instead of filling M^2
  entries independently.
* Offset negation conjugates the value, so only offsets with d_h >= 0 (and
  d_v >= 0 when d_h = 0) are evaluated; the rest are exact conjugate mirrors,
  which keeps the stored matrix Hermitian to the last bit.

Every builder normalizes the diagonal to the average gain exactly, giving
trace(R) = M * gain without relying on quadrature accuracy.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AccuracyError, UnsupportedModelError
from .geometry import ArrayGeometry, grid_indices
from .scattering import (
    ScatteringConfig,
    azimuth_profile,
    cluster_reference_masses,
    deviation_window,
    elevation_profile,
)

_MAGIC = b"HMRC"
_CONTAINER_VERSION = 1
# Rows per block in the structural checks: 4 MB of temporaries per block at M = 1024.
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
    equal to `gain`. `self_check_error` records the worst per-cluster relative
    quadrature mass error for matrices built by numerical integration (None
    for closed-form builders).
    """

    entries: np.ndarray
    gain: float
    provenance: MatrixProvenance
    self_check_error: float | None = None

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {e.shape}")
        if e.dtype != np.complex128:
            raise ValueError(f"correlation matrix must be complex128, got {e.dtype}")
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[0]

    def validate(self, psd_tol: float = 1e-10, trace_tol: float = 1e-9) -> None:
        """Check the structural invariants; raises ValueError on violation.

        Verifies finite entries, exact conjugate symmetry, a real diagonal
        matching the gain, trace equal to M * gain within `trace_tol`
        (relative), and eigenvalues no more negative than -psd_tol times the
        largest one.
        """
        self._check_structure(trace_tol)
        eigenvalues = np.linalg.eigvalsh(self.entries)
        floor = -psd_tol * max(eigenvalues[-1], 0.0)
        if eigenvalues[0] < floor:
            raise ValueError(
                f"matrix is not PSD: min eigenvalue {eigenvalues[0]} below {floor}"
            )

    def _check_structure(self, trace_tol: float = 1e-9) -> None:
        """The O(M^2) part of validate(): everything but the PSD check.

        Works on blocks of STRUCTURE_CHECK_ROWS rows, so its temporaries stay
        O(M) instead of an M x M conjugate transpose. Every entry is checked
        for finiteness before any is compared with its mirror.
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
    offset v - (M_V - 1). Entries with negative horizontal offset (or zero
    horizontal and negative vertical offset) are filled with the conjugate of
    their mirrored counterpart, so the result is Hermitian bit-for-bit.
    """
    i, j = grid_indices(geometry)
    di = i[:, None] - i[None, :]
    dj = j[:, None] - j[None, :]
    mirror = (di < 0) | ((di == 0) & (dj < 0))
    row = np.where(mirror, -di, di)
    col = np.where(mirror, -dj, dj) + (geometry.num_vertical - 1)
    values = table[row, col]
    return np.where(mirror, values.conj(), values)


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

    Maps the Gauss-Legendre rule onto each cluster's deviation windows and
    weights the axis profiles at the mapped nodes.
    """
    x_az, w_az = np.polynomial.legendre.leggauss(quadrature.nodes_azimuth)
    x_el, w_el = np.polynomial.legendre.leggauss(quadrature.nodes_elevation)

    def mapped(nominal: float, sigma: float, x: np.ndarray, w: np.ndarray):
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
            azimuth_profile(config, n, az_nodes) * az_w,
            el_nodes,
            elevation_profile(config, n, el_nodes) * el_w,
        )
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
    """
    path = Path(path)
    m = matrix.num_antennas
    header = (
        _MAGIC
        + struct.pack("<I", _CONTAINER_VERSION)
        + struct.pack("<I", m)
        + struct.pack("<d", matrix.gain)
        + struct.pack("<B", int(matrix.provenance))
    )
    rows, cols = np.triu_indices(m)
    payload = np.ascontiguousarray(matrix.entries[rows, cols], dtype="<c16")
    path.write_bytes(header + payload.tobytes())
    return path


def load_matrix(path: str | Path) -> CorrelationMatrix:
    """Read a correlation matrix written by save_matrix and revalidate it.

    Runs every check of CorrelationMatrix.validate() except the O(M^3) PSD
    check; raises ValueError on a malformed or tampered container.
    """
    raw = Path(path).read_bytes()
    header_size = 4 + 4 + 4 + 8 + 1
    if len(raw) < header_size or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a correlation matrix container")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != _CONTAINER_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    m = struct.unpack_from("<I", raw, 8)[0]
    gain = struct.unpack_from("<d", raw, 12)[0]
    provenance = MatrixProvenance(raw[20])
    expected = header_size + m * (m + 1) // 2 * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for M={m}, got {len(raw)}")
    upper = np.frombuffer(raw, dtype="<c16", offset=header_size).astype(np.complex128)
    entries = np.zeros((m, m), dtype=np.complex128)
    rows, cols = np.triu_indices(m)
    entries[rows, cols] = upper
    strict = rows != cols
    entries[cols[strict], rows[strict]] = upper[strict].conj()
    matrix = CorrelationMatrix(entries=entries, gain=gain, provenance=provenance)
    matrix._check_structure()
    return matrix


def export_matrix_csv(path: str | Path, matrix: CorrelationMatrix) -> Path:
    """Write entries as CSV with real/imaginary parts in alternating columns.

    Row m holds re(R[m,0]), im(R[m,0]), re(R[m,1]), ... Full float64
    precision per value, but the container metadata (gain, provenance) is not
    carried; prefer save_matrix for machine consumption.
    """
    path = Path(path)
    m = matrix.num_antennas
    flat = np.empty((m, 2 * m))
    flat[:, 0::2] = matrix.entries.real
    flat[:, 1::2] = matrix.entries.imag
    header = "columns alternate re/im per antenna index; row = first antenna of the pair"
    np.savetxt(path, flat, delimiter=",", fmt="%.17g", header=header)
    return path
