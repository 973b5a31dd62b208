"""Spatial correlation matrices for uniform planar arrays.

Three builders produce the M x M correlation matrix of the channel seen by a
planar array: a closed form for isotropic scattering, numerical quadrature
for the exact clustered model, and a quadrature-free closed-form
approximation of the clustered model. All three share three structural facts:

* Entry (m, l) depends on the antenna pair only through the normalized grid
  offsets (d_h, d_v), so builders evaluate one value per distinct offset
  (O(M) values). The matrix is two-level Toeplitz: viewed as
  (M_V, M_H, M_V, M_H), it is a sliding window over the offset table. A
  builder's matrix is fixed at construction, and its table is its only
  source: the dense M x M array is a read-only expansion of that window,
  formed by one strided copy on first access only. The container and CSV
  writers and the spectral layer read rows straight from the window, and
  the distance of two such matrices is a sum over their tables, so
  exporting, solving and comparing them form no M x M complex array.
* Offset negation conjugates the value, so only offsets with d_h >= 0 (and
  d_v >= 0 when d_h = 0) are evaluated; the rest are exact conjugate mirrors,
  which keeps the stored matrix Hermitian to the last bit.
* Reversing the storage index (m -> M - 1 - m) negates both grid offsets, so
  it conjugates the entry: J R J = conj(R) bit for bit, with J the exchange
  matrix. The matrix is centro-Hermitian by construction, so the spectral
  layer solves it as a real symmetric matrix without testing for the
  symmetry; only dense (loaded or external) matrices are tested.

Every builder ends in one routine, _assemble, which divides the offset table
by its own zero-offset value and pins that value, the diagonal, to the
average gain, giving trace(R) = M * gain without relying on quadrature
accuracy.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path
from typing import Iterator

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
# Relative tolerance of the trace check, in validate() and load_matrix.
TRACE_TOLERANCE = 1e-9
# The PSD floor: eigenvalues below -PSD_TOLERANCE * lambda_max are an error,
# in validate() and in the spectral layer's eigendecomposition.
PSD_TOLERANCE = 1e-10
# save_matrix's file buffer: it gathers the row slices (16 (M - m) bytes
# each) into writes of this size, one system call per 256 KiB instead of
# one per row.
_WRITE_BUFFER = 1 << 18
# Elevation nodes per block of _horizontal_sums' power tables: at the
# default 96 nodes a block's tables are a sixth of the whole rule's. The
# fig2_desk scene at 64 x 64 built in 0.044, 0.039, 0.038 and 0.056 s with
# blocks of 8, 16, 32 and 96 (best of 7, 2 cores), so 32 buys no time.
_ELEVATION_BLOCK = 16

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
        """The member name's first word in lower case ("exact" for EXACT_CLUSTERED)."""
        return self.name.partition("_")[0].lower()


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-node quadrature controls for the exact clustered builder.

    Gauss-Legendre rules with `nodes_azimuth` x `nodes_elevation` points are
    applied per cluster over its deviation window, truncated to
    +/- support_radius standard deviations around the lobe peak (None keeps
    the whole hemisphere). The truncation is not always harmless: the
    peak-referenced lobe exp((cos 2x - 1)/(4 sigma^2)) is pi-periodic, so for
    a cluster near the hemisphere edge it climbs back toward the far end of
    the window, and the default radius cuts that mass off (6.4e-3 of it for
    a = 0, azimuth 1.186 rad, sigma 0.149 rad). Builders verify the rule by
    integrating each cluster's density against an untruncated adaptive
    reference and fail if any cluster's mass is off by more than
    `density_check_tol`, so such a cut fails loudly.
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


class CorrelationMatrix:
    """Hermitian PSD spatial correlation matrix with its construction metadata.

    `entries` is complex128 with exact conjugate symmetry and a real diagonal
    equal to `gain`. `self_check_error` records the worst per-cluster
    relative quadrature mass error for matrices built by numerical
    integration (None for closed-form builders).

    A builder's matrix is a value fixed at construction. It carries its
    `geometry` and its full (2 M_V - 1) x (2 M_H - 1) offset table, the
    matrix's only source: `entries` is the read-only expansion of that
    table, formed on first access and kept. save_matrix and
    export_matrix_csv always write rows straight from the table, the
    spectral layer fills its real forms from rows copied from the table,
    and correlation_matrix_distance of two such matrices of one geometry
    sums over their tables, so none of them forms the M x M array. It is
    formed only where `entries` is read.
    CorrelationMatrix(entries, gain, provenance, self_check_error) is a
    dense matrix (loaded or external data), with `geometry` None; its
    `entries` is the array given. _structure says what each kind's
    symmetry rests on. `num_antennas` is M. Attributes are read-only.
    """

    def __init__(
        self,
        entries: np.ndarray,
        gain: float,
        provenance: MatrixProvenance,
        self_check_error: float | None = None,
    ) -> None:
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {entries.shape}")
        if entries.shape[0] == 0:
            raise ValueError("correlation matrix must not be empty")
        if entries.dtype != np.complex128:
            raise ValueError(f"correlation matrix must be complex128, got {entries.dtype}")
        self._init(entries, None, None, gain, provenance, self_check_error)

    def _init(self, entries, geometry, offsets, gain, provenance, self_check_error):
        if not 0 < gain < math.inf:
            raise ValueError(f"gain must be finite and positive, got {gain}")
        self.__dict__.update(
            _entries=entries,
            _offsets=offsets,
            geometry=geometry,
            num_antennas=entries.shape[0] if geometry is None else geometry.num_antennas,
            gain=gain,
            provenance=provenance,
            self_check_error=self_check_error,
        )
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self.__dict__["_entries"] = _expand(self.geometry, self._offsets)
        return self._entries

    def _row_blocks(self, upper: bool) -> Iterator[np.ndarray]:
        """The matrix's rows in consecutive blocks, from its one source.

        With `upper`, each block keeps only the columns from its first row
        on, so row i of a block starts its upper triangle at column i. A
        dense matrix yields views of `entries`, STRUCTURE_CHECK_ROWS rows at
        a time. A builder's matrix yields the M_H rows of one array row at a
        time, copied from its offset table's sliding window into one reused
        buffer, so a block is valid only until the next one is drawn; its
        `entries`, formed or not, is never read.
        """
        m = self.num_antennas
        if self._offsets is None:
            yield from (self._entries[a:b, a if upper else 0 :] for a, b in _row_ranges(m))
            return
        m_h = self.geometry.num_horizontal
        window = _offset_window(self.geometry, self._offsets)
        buffer = np.empty((m_h, m), dtype=np.complex128)
        for v in range(self.geometry.num_vertical):
            skipped = v if upper else 0  # array rows left of the block's first column
            rows = buffer[:, skipped * m_h :]
            np.copyto(rows.reshape(m_h, -1, m_h), window[v, :, skipped:])
            yield rows

    def _trace(self) -> float:
        """The real part of np.trace(entries), bit for bit.

        A builder's diagonal is pinned to the gain, so its trace is M complex
        gains summed in the order np.trace sums the diagonal, without
        reading `entries`.
        """
        if self._offsets is None:
            return float(np.trace(self._entries).real)
        return float(np.full(self.num_antennas, complex(self.gain)).sum().real)

    def validate(self, psd_tol: float = PSD_TOLERANCE, trace_tol: float = TRACE_TOLERANCE) -> None:
        """Check the structural invariants; raises ValueError on violation.

        Verifies finite entries, exact conjugate symmetry, trace equal to
        M * gain within `trace_tol` (relative), a diagonal equal to the gain
        bit for bit (every builder pins it), and eigenvalues no more negative
        than -psd_tol times the largest one. One sequence for both kinds of
        matrix: _check_structure (finiteness, a real nonnegative diagonal,
        the trace), the exact diagonal, then the spectral layer's solver,
        whose structure query (_structure) runs the one Hermitian scan of a
        dense matrix before any solve, and its PSD floor with `psd_tol`,
        which defaults to PSD_TOLERANCE, the floor of spectrum() and
        eigendecompose(). A solver failure raises NumericalError. A
        builder's matrix is finite and Hermitian by construction
        (_full_offsets), so none of this scans it or forms its `entries`.
        """
        from .spectral import _solve, _spectrum_from  # spectral imports this module

        if not np.all(self._check_structure(trace_tol) == self.gain):
            raise ValueError(f"diagonal differs from the gain {self.gain}")
        eigenvalues, _, _ = _solve(self, vectors=False)
        try:
            _spectrum_from(self, eigenvalues, psd_tol)
        except NumericalError as exc:
            raise ValueError(str(exc)) from exc

    def _check_structure(self, trace_tol: float = TRACE_TOLERANCE) -> np.ndarray:
        """The diagonal, once the cheap O(M^2) checks pass; raises ValueError otherwise.

        The part of validate() that load_matrix also runs; validate() adds
        the exact diagonal, the Hermitian scan and the PSD checks. A
        builder's matrix is finite and Hermitian by construction, so its
        diagonal is its table's zero offset. A dense matrix is checked for
        finite entries first (_check_finite), then for a real, nonnegative
        diagonal: a diagonal entry with an imaginary part is not its own
        conjugate, so it is reported as not Hermitian. Either kind's trace,
        _trace(), must be M * gain within `trace_tol` (relative). No
        off-diagonal pair is compared here: _checked_entries does that in
        validate(), and load_matrix forms the pairs as exact conjugate
        mirrors.
        """
        m = self.num_antennas
        if self._offsets is not None:
            m_h, m_v = self.geometry.num_horizontal, self.geometry.num_vertical
            diagonal = self._offsets[m_v - 1, m_h - 1]
        else:
            self._check_finite()
            diagonal = np.diagonal(self._entries)
            if diagonal.imag.any():
                raise ValueError("matrix is not exactly Hermitian")
            if np.any(diagonal.real < 0.0):
                raise ValueError("diagonal must be real and nonnegative")
        trace = self._trace()
        if abs(trace - m * self.gain) > trace_tol * m * self.gain:
            raise ValueError(f"trace {trace} deviates from M*gain {m * self.gain}")
        return diagonal

    def _check_finite(self) -> None:
        """Raise ValueError if an entry is NaN or Inf, STRUCTURE_CHECK_ROWS rows at a time."""
        if not all(np.isfinite(self.entries[a:b]).all() for a, b in _row_ranges(self.num_antennas)):
            raise ValueError("matrix has non-finite entries (NaN or Inf)")

    def _checked_entries(self) -> np.ndarray:
        """`entries`, once an exact scan finds each entry the conjugate of its mirror.

        Raises ValueError otherwise. Row block [a, b) is compared with the
        conjugate transpose of column block [a, b), STRUCTURE_CHECK_ROWS
        rows at a time. The one Hermitian scan of a dense matrix: only
        _structure, the solver's query, runs it, so validate() scans once
        (through the solve) and load_matrix, whose mirror makes every pair
        Hermitian, not at all.

        A NaN never equals its mirror, so a failed scan first checks for
        non-finite entries and reports those instead. That check runs on
        the failure path only: LAPACK returns finite eigenvalues for some
        matrices holding a NaN, so the scan must stay ahead of the solve.
        An Inf that equals its mirror passes, and the spectral layer's
        check of the eigenvalues reports it.
        """
        e, blocks = self.entries, _row_ranges(self.num_antennas)
        if not all(np.array_equal(e[a:b], e[:, a:b].conj().T) for a, b in blocks):
            self._check_finite()
            raise ValueError("matrix is not exactly Hermitian")
        return e

    def _is_centro_hermitian(self) -> bool:
        """Whether reversing both indices conjugates every entry, bit for bit.

        The exact scan _structure runs on a dense matrix; a builder's matrix
        has the symmetry by construction (_full_offsets mirrors its table).
        Row block [a, b) is compared with the conjugate of the mirrored
        block [M - b, M - a) read backwards in both axes. The mirror of the
        first half of the rows is the second half, so only the first half is
        read, in blocks of STRUCTURE_CHECK_ROWS rows.
        """
        e, m = self.entries, self.num_antennas
        blocks = _row_ranges((m + 1) // 2)
        return all(np.array_equal(e[a:b], e[m - b : m - a][::-1, ::-1].conj()) for a, b in blocks)

    def _structure(self) -> tuple[bool, bool]:
        """(real, centro_hermitian): what the spectral solver needs to know of the matrix.

        The one place the structure rule lives. A builder's matrix takes it
        from its type: it is Hermitian and centro-Hermitian by construction,
        and real exactly when its O(M) offset table is, so no O(M^2) scan
        runs and `entries` is not formed. A dense matrix (loaded or
        external) is tested exactly, without tolerance: first for Hermitian
        symmetry (_checked_entries), which LAPACK assumes when it reads one
        triangle, so one without it raises ValueError, or the non-finite
        entries error for a NaN, before any solve; then for exact reality
        and centro-Hermitian symmetry (_is_centro_hermitian). One that
        lacks the latter is solved as it is.
        """
        if self._offsets is not None:
            return not self._offsets.imag.any(), True
        return not self._checked_entries().imag.any(), self._is_centro_hermitian()


def _row_ranges(stop: int) -> list[tuple[int, int]]:
    """Consecutive [start, end) row ranges of STRUCTURE_CHECK_ROWS rows covering [0, stop)."""
    return [(a, min(a + STRUCTURE_CHECK_ROWS, stop)) for a in range(0, stop, STRUCTURE_CHECK_ROWS)]


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


def _full_offsets(geometry: ArrayGeometry, table: np.ndarray) -> np.ndarray:
    """The (2 M_V - 1) x (2 M_H - 1) table over all offsets, from its half plane.

    `table[h, v]` holds the value at horizontal offset h >= 0 and vertical
    offset v - (M_V - 1); the entries at h = 0, v < M_V - 1 are not read.
    In the result, [d_v + M_V - 1, d_h + M_H - 1] holds the value at offset
    (d_v, d_h): each negative horizontal offset (and zero horizontal,
    negative vertical offset) gets the conjugate of its mirrored value, so a
    matrix copied from it is Hermitian (given a real zero-offset value) and
    centro-Hermitian bit for bit. O(M).

    Raises NumericalError if the table holds NaN or Inf: a finite table
    gives a finite matrix.
    """
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    full = np.empty((2 * m_v - 1, 2 * m_h - 1), dtype=np.complex128)
    full[:, m_h - 1 :] = table.T
    full[: m_v - 1, m_h - 1] = full[::-1, m_h - 1][: m_v - 1].conj()
    full[:, : m_h - 1] = full[::-1, ::-1][:, : m_h - 1].conj()
    if not np.isfinite(full).all():
        raise NumericalError("correlation offset table has non-finite values (NaN or Inf)")
    return full


def _offset_window(geometry: ArrayGeometry, offsets: np.ndarray) -> np.ndarray:
    """The matrix as a (M_V, M_H, M_V, M_H) strided view of its full offset table.

    Entry (m, l) is the table value at the offset of antenna m from antenna
    l, so [v_m, h_m, v_l, h_l] reads a sliding window over the flipped
    table. Only the O(M) table is copied, into a contiguous flipped copy.
    """
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    window = np.lib.stride_tricks.sliding_window_view(offsets[::-1, ::-1].copy(), (m_v, m_h))
    return window[::-1, ::-1]


def _expand(geometry: ArrayGeometry, offsets: np.ndarray) -> np.ndarray:
    """The dense M x M matrix of a full offset table, by one strided copy, read-only."""
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    entries = np.empty((geometry.num_antennas,) * 2, dtype=np.complex128)
    np.copyto(entries.reshape(m_v, m_h, m_v, m_h), _offset_window(geometry, offsets))
    entries.flags.writeable = False
    return entries


def _assemble(
    geometry: ArrayGeometry,
    table: np.ndarray,
    gain: float,
    provenance: MatrixProvenance,
    self_check_error: float | None = None,
) -> CorrelationMatrix:
    """The matrix of a builder's half-plane offset table, normalized to `gain`.

    Every builder ends here. The table is divided by its own zero-offset
    value, the model's total mass, and scaled to the gain, so the builder
    never forms the mixture normalization or a density's peak factor. It is
    then completed over all offsets by _full_offsets, which rejects
    non-finite values. (gain / mass) * mass can round 1 ulp off the gain, so
    the zero offset, the only one on the diagonal, is pinned to it, which
    puts the trace at M * gain exactly. The matrix keeps the table; nothing
    of size M^2 is formed here.
    """
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    mass = table[0, m_v - 1].real
    offsets = _full_offsets(geometry, (gain / mass) * table)
    offsets[m_v - 1, m_h - 1] = gain
    matrix = CorrelationMatrix.__new__(CorrelationMatrix)
    return matrix._init(None, geometry, offsets, gain, provenance, self_check_error)


def build_isotropic(geometry: ArrayGeometry, gain: float = 1.0) -> CorrelationMatrix:
    """Correlation matrix under isotropic scattering, entry gain * sinc(2 r).

    r is the antenna separation in wavelengths; sinc is the normalized
    sin(pi x)/(pi x). Real-valued and exact, no quadrature involved.
    """
    if not 0 < gain < math.inf:
        raise ValueError(f"gain must be finite and positive, got {gain}")
    d_h, d_v = _offset_grids(geometry)
    radius = np.sqrt(d_h[:, None] ** 2 + d_v[None, :] ** 2)
    return _assemble(geometry, np.sinc(2.0 * radius), gain, MatrixProvenance.ISOTROPIC)


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


def _horizontal_sums(
    geometry: ArrayGeometry, g_az: np.ndarray, sin_az: np.ndarray, cos_el: np.ndarray
) -> np.ndarray:
    """Azimuth-weighted horizontal phase sums of one diffuse cluster, shape (M_H, N_el).

    Entry [h, e] is sum_d g_az[d] z[e, d]^h with z = exp(i x) and
    x[e, d] = 2 pi s cos_el[e] sin_az[d], s the spacing in wavelengths: the
    horizontal phase couples both deviations through sin(az) * cos(el).
    The offset index is split as h = B j + k with B = ceil(sqrt(M_H)),
    k < B and j < J = ceil(M_H / B), and z^h = (z^B)^j z^k. Only z costs an
    exponential, one per node pair; the two short tables low[e, d, k] = z^k
    and high[e, j, d] = g_az[d] (z^B)^j are its powers by repeated
    multiplication, and one GEMM per elevation node contracts them over the
    azimuth nodes; its J B columns are cut to M_H. The tables are formed in
    place for _ELEVATION_BLOCK elevation nodes at a time, so they take
    O(_ELEVATION_BLOCK (B + J) N_az) memory, not O((B + J) N_az N_el).
    """
    m_h = geometry.num_horizontal
    b = math.isqrt(m_h - 1) + 1
    j = -(-m_h // b)
    z = np.exp((2j * np.pi * geometry.spacing_fraction) * (cos_el[:, None] * sin_az[None, :]))
    sums = np.empty((cos_el.size, j, b), dtype=np.complex128)
    for first in range(0, cos_el.size, _ELEVATION_BLOCK):
        rows = slice(first, first + _ELEVATION_BLOCK)
        block = z[rows]
        low = np.empty(block.shape + (b,), dtype=np.complex128)
        high = np.empty((block.shape[0], j, block.shape[1]), dtype=np.complex128)
        low[..., 0] = 1.0
        high[:, 0] = g_az
        for k in range(1, b):
            np.multiply(low[..., k - 1], block, out=low[..., k])
        step = low[..., b - 1] * block  # z^B
        for i in range(1, j):
            np.multiply(high[:, i - 1], step, out=high[:, i])
        np.matmul(high, low, out=sums[rows])
    return sums.reshape(cos_el.size, j * b)[:, :m_h].T


def build_exact_clustered(
    geometry: ArrayGeometry,
    scattering: ScatteringConfig,
    quadrature: QuadratureSpec | None = None,
) -> CorrelationMatrix:
    """Correlation matrix of the clustered model by per-cluster 2-D quadrature.

    Each cluster's contribution to an offset value is a double integral of
    the plane-wave phase against its density. The elevation-dependent factors
    separate, so the integral is evaluated as a weighted tensor contraction
    over the two axis rules rather than a generic 2-D sum. The horizontal
    phase of a diffuse cluster takes one exponential per node pair,
    z = exp(i x); the offset index is split as h = B j + k,
    B = ceil(sqrt(M_H)), into two short tables of powers of z, z^k and
    (z^B)^j, joined by one GEMM per elevation node (_horizontal_sums) and
    formed for a block of elevation nodes at a time. Densities are
    handled in peak-referenced form; _assemble divides the table by its
    zero-offset value, which cancels the peak factor and the mixture
    normalization without ever forming either.

    Raises AccuracyError when the fixed-node rule fails the per-cluster mass
    self-check, which is the symptom of an under-resolved angular spread.
    """
    quadrature = quadrature or QuadratureSpec()
    reference = cluster_reference_masses(scattering)
    rules = _diffuse_rules(scattering, quadrature)
    errors = _mass_errors(scattering, rules, reference)
    worst = int(np.argmax(np.abs(errors)))
    if abs(errors[worst]) > quadrature.density_check_tol:
        message = (
            f"quadrature mass self-check failed: cluster {worst} relative error "
            f"{errors[worst]:.3e} exceeds {quadrature.density_check_tol:.1e}; "
            f"increase nodes_azimuth/nodes_elevation (currently "
            f"{quadrature.nodes_azimuth}x{quadrature.nodes_elevation})"
        )
        radius = quadrature.support_radius
        if radius is not None and any(
            deviation_window(nominal, sigma, radius) != deviation_window(nominal, sigma, None)
            for nominal, _, sigma in _cluster_axes(scattering, worst)
        ):
            message += (
                f"; its deviation window was cut to +/- {radius:g} sigma around the lobe "
                "peak, and near the hemisphere edge the lobe climbs back beyond the cut, "
                "which no node count restores: if more nodes do not help, set "
                "quadrature.support_radius to null to integrate over the whole hemisphere"
            )
        raise AccuracyError(message)

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
        partial = _horizontal_sums(geometry, g_az, sin_az, cos_el)
        phase_v = np.exp(2j * np.pi * d_v[:, None] * sin_el[None, :])
        table += cluster.power * (partial * g_el[None, :]) @ phase_v.T

    return _assemble(
        geometry,
        table,
        scattering.gain,
        MatrixProvenance.EXACT_CLUSTERED,
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

    table = np.zeros((d_h.size, d_v.shape[1]), dtype=np.complex128)
    for cluster in scattering.clusters:
        if cluster.power == 0.0:
            continue
        cos_az = np.cos(cluster.azimuth)
        sin_az = np.sin(cluster.azimuth)
        cos_el = np.cos(cluster.elevation)
        sin_el = np.sin(cluster.elevation)
        cos_az_a = cos_az**a
        cos_az_da = a * cos_az ** (a - 1)
        cos_el_b = cos_el**b
        cos_el_b1 = cos_el_b * cos_el

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
        table += cluster.power * anchor * magnitude * twist * bracket

    return _assemble(geometry, table, scattering.gain, MatrixProvenance.APPROX_CLUSTERED)


def _offset_multiplicities(geometry: ArrayGeometry) -> np.ndarray:
    """How often each offset of the full table occurs in the matrix, same shape.

    Offset (d_v, d_h) joins (M_V - |d_v|)(M_H - |d_h|) antenna pairs.
    """
    m_h, m_v = geometry.num_horizontal, geometry.num_vertical
    vertical = m_v - np.abs(np.arange(1 - m_v, m_v))
    horizontal = m_h - np.abs(np.arange(1 - m_h, m_h))
    return np.outer(vertical, horizontal).astype(float)


def correlation_matrix_distance(first: CorrelationMatrix, second: CorrelationMatrix) -> float:
    """Correlation matrix distance in [0, 1]; 0 for equal up to rounding, 1 for orthogonal.

    Computes 1 - tr(R1 R2) / (||R1||_F ||R2||_F); the trace is real for
    Hermitian inputs. Raises ValueError on shape mismatch or zero matrices.
    Two builders' matrices of equal geometry are read from their offset
    tables: the trace and both squared norms are O(M) sums over the
    offsets, each weighted by how many entries hold it (a builder's matrix
    is never zero). Every other pair is summed over the dense entries.
    """
    m, n = first.num_antennas, second.num_antennas
    if m != n:
        raise ValueError(f"shape mismatch: {(m, m)} vs {(n, n)}")
    if first._offsets is not None and first.geometry == second.geometry:
        weights = _offset_multiplicities(first.geometry).ravel()

        def inner(x: np.ndarray, y: np.ndarray) -> float:
            return float(weights @ (x.real * y.real + x.imag * y.imag).ravel())

        # At unit gain the squared norms stay far from overflow; the
        # distance does not depend on the scale of either matrix.
        a, b = first._offsets / first.gain, second._offsets / second.gain
        product, scale = inner(a, b), math.sqrt(inner(a, a) * inner(b, b))
    else:
        a, b = first.entries, second.entries
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        if norm_a == 0.0 or norm_b == 0.0:
            raise ValueError("correlation matrix distance is undefined for zero matrices")
        product, scale = float(np.real(np.vdot(a, b))), norm_a * norm_b
    return max(0.0, 1.0 - product / scale)


def save_matrix(path: str | Path, matrix: CorrelationMatrix) -> Path:
    """Write a correlation matrix to the binary container format.

    Layout: magic "HMRC", u32 version, u32 M, f64 gain, u8 provenance code,
    then the upper triangle (row-major, diagonal included) as little-endian
    complex128. Exact roundtrip; the lower triangle is implied by symmetry.
    Streams the header and then each row's upper-triangle slice to the open
    file, so it allocates nothing of size M^2. A builder's matrix is always
    written straight from its offset table, its only source, one array row
    of antennas at a time, whether or not its `entries` was formed.
    """
    path = Path(path)
    with path.open("wb", buffering=_WRITE_BUFFER) as f:
        code = int(matrix.provenance)
        f.write(_HEADER.pack(_MAGIC, _CONTAINER_VERSION, matrix.num_antennas, matrix.gain, code))
        for rows in matrix._row_blocks(upper=True):
            for i, row in enumerate(rows):
                f.write(np.ascontiguousarray(row[i:], dtype="<c16"))
    return path


def load_matrix(path: str | Path) -> CorrelationMatrix:
    """Read a correlation matrix written by save_matrix and revalidate it.

    Raises ValueError, with the path in its message, on a malformed or
    tampered container. The file size is checked against the header's M
    before anything is allocated. Each upper-triangle row is then read
    straight into the result, and the lower triangle is mirrored in blocks
    of STRUCTURE_CHECK_ROWS rows, so the only M x M array is the result
    itself. The mirror makes every off-diagonal pair exactly Hermitian, so
    no Hermitian scan runs: CorrelationMatrix._check_structure checks the
    rest, finite entries, a real nonnegative diagonal and the trace. The
    exact diagonal and the O(M^3) PSD check are left to validate(), so a
    diagonal within the trace tolerance of the gain still loads (the
    benchmark's export check bounds it by rounding instead). The
    provenance byte and the header's M and gain are checked when the
    matrix is constructed, after the payload is read.
    """
    with Path(path).open("rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a correlation matrix container")
        _, version, m, gain, code = _HEADER.unpack(header)
        if version != _CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        expected = _HEADER.size + m * (m + 1) // 2 * 16
        size = Path(path).stat().st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes for M={m}, got {size}")
        entries = np.empty((m, m), dtype="<c16")
        for row in range(m):
            if f.readinto(entries[row, row:]) != 16 * (m - row):
                raise ValueError(f"{path}: payload ended before row {row}")
    for start, stop in _row_ranges(m):
        upper = entries[start:stop, start:]
        entries[stop:, start:stop] = upper[:, stop - start :].conj().T
        lower = np.tri(stop - start, k=-1, dtype=bool)
        np.copyto(entries[start:stop, start:stop], upper[:, : stop - start].conj().T, where=lower)
    try:
        provenance = MatrixProvenance(code)
        matrix = CorrelationMatrix(entries.astype(np.complex128, copy=False), gain, provenance)
        matrix._check_structure()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return matrix


def export_matrix_csv(path: str | Path, matrix: CorrelationMatrix) -> Path:
    """Write entries as CSV with real/imaginary parts in alternating columns.

    Row m holds re(R[m,0]), im(R[m,0]), re(R[m,1]), ... Full float64
    precision per value, but the container metadata (gain, provenance) is not
    carried; prefer save_matrix for machine consumption. The layout is
    np.savetxt's with fmt "%.17g", a "# " header line and "\n" newlines.
    A builder's matrix is written from its offset table, without forming or
    reading the M x M array: each of the table's (2 M_V - 1)(2 M_H - 1)
    values is formatted once, as its "re,im" pair, and each row is one join
    of its entries' pairs, read through _offset_window of the table of
    pairs. A dense matrix's rows come in the same blocks as
    save_matrix's and are formatted one at a time from a float64 view of
    their complex entries (re and im are adjacent in memory), so no M x 2M
    copy is made. Both give the same bytes for the same entries.
    """
    path = Path(path)
    with path.open("w") as f:
        f.write("# columns alternate re/im per antenna index; row = first antenna of the pair\n")
        if matrix._offsets is not None:
            pairs = ["%.17g,%.17g" % (z.real, z.imag) for z in matrix._offsets.flat]
            table = np.array(pairs, dtype=object).reshape(matrix._offsets.shape)
            for plane in _offset_window(matrix.geometry, table):
                f.writelines(",".join(row.ravel().tolist()) + "\n" for row in plane)
            return path
        line = ",".join(["%.17g"] * (2 * matrix.num_antennas)) + "\n"
        for rows in matrix._row_blocks(upper=False):
            for row in np.ascontiguousarray(rows).view(np.float64):
                f.write(line % tuple(row.tolist()))
    return path
