"""Eigenstructure analysis of correlation matrices.

Dense holographic arrays produce rank-deficient correlation matrices; the
quantities here measure how small the significant eigenspace is and whether
one model's eigenspace fits inside another's. `spectrum` gives eigenvalues
and ranks only; `eigendecompose` adds the eigenvectors.

Both share one solver dispatch. Every builder's matrix is centro-Hermitian
(J R J = conj(R), J the exchange matrix), so a sparse unitary Q turns it
into the real symmetric Q^H R Q (A. Lee, "Centrohermitian and
skew-centrohermitian matrices", Linear Algebra Appl. 29, 1980), which LAPACK
solves several times faster than the Hermitian matrix. A real
centro-symmetric matrix, such as the isotropic one, splits into two real
parity blocks of half the size. The symmetry is tested exactly; a matrix
that lacks it, such as a loaded or external one, is solved as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .errors import NumericalError
from .geometry import ArrayGeometry

RANK_TOLERANCE = 1e-12
EFFECTIVE_RANK_COMPLEMENT = 1e-5
PSD_TOLERANCE = 1e-10
_SQRT2 = np.sqrt(2.0)
_HALF_SQRT2 = np.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a correlation matrix, descending, with rank metadata.

    `eigenvalues` has shape (M,), clamped to be nonnegative.
    `numerical_rank` counts eigenvalues above RANK_TOLERANCE relative to the
    largest; `effective_rank` is the smallest count capturing all but
    EFFECTIVE_RANK_COMPLEMENT of the total energy. `source_trace` is the
    trace of the decomposed matrix.
    """

    eigenvalues: np.ndarray
    numerical_rank: int
    effective_rank: int
    source_trace: float

    @property
    def num_antennas(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class EigenBasis(Spectrum):
    """A Spectrum plus its eigenvectors.

    Column k of `eigenvectors` (complex128, shape (M, M)) is the unit
    eigenvector of eigenvalue k.
    """

    eigenvectors: np.ndarray


def effective_rank(
    basis: "Spectrum | np.ndarray", fraction_complement: float = EFFECTIVE_RANK_COMPLEMENT
) -> int:
    """Smallest k whose top-k eigenvalues hold a (1 - fraction_complement) energy share.

    Accepts a Spectrum (or EigenBasis) or a bare eigenvalue array sorted
    descending with nonnegative entries and positive sum.
    """
    if not 0.0 < fraction_complement < 1.0:
        raise ValueError(f"fraction_complement must be in (0, 1), got {fraction_complement}")
    values = basis.eigenvalues if isinstance(basis, Spectrum) else np.asarray(basis, dtype=float)
    total = float(values.sum())
    if not total > 0:
        raise ValueError("effective rank is undefined for a zero spectrum")
    cumulative = np.cumsum(values)
    return int(np.searchsorted(cumulative, (1.0 - fraction_complement) * total)) + 1


def _parity_blocks(
    entries: np.ndarray, plus: np.ndarray, minus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Write the diagonal blocks of Lee's real form of R into `plus` and `minus`.

    With n = M // 2, A = R[:n, :n] and BJ = R[:n, M-n:] with its columns
    reversed, `plus` (ceil(M/2) square) gets Re(A+BJ), bordered for odd M by
    sqrt(2) Re x and R[n, n], x = R[:n, n]; `minus` (n square) gets
    Re(A-BJ). Returns the views A and BJ.
    """
    m = entries.shape[0]
    n, h = m // 2, m - m // 2
    a = entries[:n, :n]
    bj = entries[:n, h:][:, ::-1]
    np.add(a.real, bj.real, out=plus[:n, :n])
    np.subtract(a.real, bj.real, out=minus)
    if h > n:
        plus[n, :n] = plus[:n, n] = _SQRT2 * entries[:n, n].real
        plus[n, n] = entries[n, n].real
    return a, bj


def _real_form(entries: np.ndarray) -> np.ndarray:
    """The real symmetric matrix Q^H R Q of a centro-Hermitian R (Lee 1980).

    With n, A, BJ and x as in _parity_blocks,
    Q = [[I, 0, iI], [0, sqrt(2), 0], [J, 0, -iJ]] / sqrt(2) (the middle row
    and column only for odd M) gives

        [[Re(A+BJ),      sqrt(2) Re x,  -Im(A-BJ)],
         [sqrt(2) Re x^T, R[n, n],       sqrt(2) Im x^T],
         [Im(A+BJ),      sqrt(2) Im x,   Re(A-BJ)]]

    Every block is elementwise on views of R.
    """
    m = entries.shape[0]
    n, h = m // 2, m - m // 2
    form = np.empty((m, m))
    a, bj = _parity_blocks(entries, form[:h, :h], form[h:, h:])
    np.add(a.imag, bj.imag, out=form[h:, :n])
    np.subtract(bj.imag, a.imag, out=form[:n, h:])
    if h > n:
        form[n, h:] = form[h:, n] = _SQRT2 * entries[:n, n].imag
    return form


def _solve_real_form(entries: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve a complex centro-Hermitian matrix through its real form.

    An eigenvector V = [V1; v; V2] of the real form maps back to
    [(V1 + i V2); sqrt(2) v; J (V1 - i V2)] / sqrt(2), written column by
    column into the descending complex128 result.
    """
    form = _real_form(entries)
    if not vectors:
        return np.linalg.eigvalsh(form)[::-1], None
    values, real_vectors = np.linalg.eigh(form)
    del form
    m = entries.shape[0]
    n, h = m // 2, m - m // 2
    descending = real_vectors[:, ::-1]
    columns = np.empty((m, m), dtype=np.complex128)
    top, bottom = columns[:n], columns[h:]
    np.multiply(descending[:n], _HALF_SQRT2, out=top.real)
    np.multiply(descending[h:], _HALF_SQRT2, out=top.imag)
    np.multiply(descending[:n][::-1], _HALF_SQRT2, out=bottom.real)
    np.multiply(descending[h:][::-1], -_HALF_SQRT2, out=bottom.imag)
    if h > n:
        columns[n] = descending[n]
    return values[::-1], columns


def _solve_parity(entries: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve a real centro-symmetric matrix as its two parity blocks.

    The real form of a real matrix is block diagonal: Re(A+BJ), bordered by
    the middle row and column for odd M, and Re(A-BJ). Their eigenvectors v
    map back to the real [v; sqrt(2) v_mid; Jv] / sqrt(2) and
    [v; 0; -Jv] / sqrt(2).
    """
    m = entries.shape[0]
    n, h = m // 2, m - m // 2
    plus, minus = np.empty((h, h)), np.empty((n, n))
    _parity_blocks(entries, plus, minus)
    if not vectors:
        values = np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)])
        return np.sort(values)[::-1], None
    plus_values, plus_vectors = np.linalg.eigh(plus)
    minus_values, minus_vectors = np.linalg.eigh(minus)
    values = np.concatenate([plus_values, minus_values])
    order = np.argsort(values, kind="stable")[::-1]
    position = np.argsort(order)  # the inverse sort: where each block eigenvector lands
    columns = np.zeros((m, m), dtype=np.complex128)
    blocks = ((plus_vectors, position[:h], 1.0), (minus_vectors, position[h:], -1.0))
    for block, targets, sign in blocks:
        top = block[:n] * _HALF_SQRT2
        columns.real[:n, targets] = top
        columns.real[h:, targets] = sign * top[::-1]
    if h > n:
        columns.real[n, position[:h]] = plus_vectors[n]
    return values[order], columns


def _solve(matrix: CorrelationMatrix, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Descending eigenvalues, plus eigenvector columns when `vectors` is set.

    The columns come back as a C-contiguous complex128 array. Every builder's
    matrix is centro-Hermitian (reversing both indices conjugates the entry),
    so a sparse unitary Q makes Q^H R Q real symmetric with the same
    eigenvalues; that real solve is several times cheaper than the Hermitian
    one. A real centro-symmetric matrix, such as the isotropic one, splits
    further into two parity blocks of half the size. The symmetry is tested
    exactly, without tolerance. A matrix that lacks it is solved as is: in
    real arithmetic when its imaginary part is exactly zero, else as a
    Hermitian matrix.
    """
    entries = matrix.entries
    real = not entries.imag.any()
    try:
        if matrix._is_centro_hermitian():
            if real:
                return _solve_parity(entries, vectors)
            return _solve_real_form(entries, vectors)
        operand = entries.real if real else entries
        if not vectors:
            return np.linalg.eigvalsh(operand)[::-1], None
        values, columns = np.linalg.eigh(operand)
        return values[::-1], np.ascontiguousarray(columns[:, ::-1], dtype=np.complex128)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {matrix.provenance.label} matrix "
            f"(M={matrix.num_antennas}): {exc}"
        ) from exc


def _spectrum_from(
    matrix: CorrelationMatrix, descending: np.ndarray, psd_tol: float = PSD_TOLERANCE
) -> Spectrum:
    """PSD-check, clamp and rank the solver's descending eigenvalues.

    The one PSD check, shared by both spectral entry points and
    CorrelationMatrix.validate(): eigenvalues within -psd_tol * lambda_max of
    zero are rounding artifacts and are clamped to zero; anything more
    negative raises NumericalError.
    """
    values = descending.copy()
    largest = float(values[0])
    if largest <= 0:
        raise NumericalError("correlation matrix has no positive eigenvalue")
    floor = -psd_tol * largest
    smallest = float(values[-1])
    if smallest < floor:
        raise NumericalError(
            f"matrix is not PSD within tolerance: min eigenvalue {smallest:.3e} "
            f"below {floor:.3e} (provenance {matrix.provenance.label})"
        )
    np.clip(values, 0.0, None, out=values)
    return Spectrum(
        eigenvalues=values,
        numerical_rank=int(np.count_nonzero(values > RANK_TOLERANCE * largest)),
        effective_rank=effective_rank(values),
        source_trace=float(np.trace(matrix.entries).real),
    )


def spectrum(matrix: CorrelationMatrix) -> Spectrum:
    """Eigenvalues and rank metadata without eigenvectors, eigenvalues descending.

    Negative eigenvalues within -PSD_TOLERANCE * lambda_max of zero are
    clamped to zero; anything more negative raises NumericalError. Real
    matrices are solved in real arithmetic, as in eigendecompose.
    """
    descending, _ = _solve(matrix, vectors=False)
    return _spectrum_from(matrix, descending)


def eigendecompose(matrix: CorrelationMatrix, *, vectors: bool = True) -> EigenBasis | Spectrum:
    """Full eigendecomposition with rank metadata, eigenvalues descending.

    Eigenvalues go through the same PSD check and clamp as spectrum(). A
    matrix whose imaginary part is exactly zero is decomposed in real
    arithmetic; its eigenvectors are still returned as complex128.
    `vectors=False` skips the eigenvectors and returns spectrum(matrix).
    """
    if not vectors:
        return spectrum(matrix)
    descending, eigenvectors = _solve(matrix, vectors=True)
    spec = _spectrum_from(matrix, descending)
    return EigenBasis(eigenvectors=eigenvectors, **vars(spec))


def rank_fraction_prediction(geometry: ArrayGeometry) -> float:
    """Predicted fraction of significant eigenvalues, min(1, pi * (spacing/wavelength)^2).

    Asymptotic (large-array) value of effective_rank / M under isotropic
    scattering; finite arrays land above it and approach it from above.
    """
    return min(1.0, np.pi * geometry.spacing_fraction**2)


def subspace_containment_residual(
    container: EigenBasis,
    contained: EigenBasis,
    container_rank: int | None = None,
    contained_rank: int | None = None,
) -> float:
    """Mean squared projection leakage of one eigenspace outside another.

    Projects the top `contained_rank` eigenvectors of `contained` (default:
    its effective rank) onto the orthogonal complement of the span of the top
    `container_rank` eigenvectors of `container` (default: its numerical
    rank) and returns the squared Frobenius norm of the leakage divided by
    the number of projected vectors. Zero means full containment; values up
    to 1 measure how much energy escapes the container span.
    """
    if container.num_antennas != contained.num_antennas:
        raise ValueError(
            f"dimension mismatch: {container.num_antennas} vs {contained.num_antennas}"
        )
    r_container = container.numerical_rank if container_rank is None else container_rank
    r_contained = contained.effective_rank if contained_rank is None else contained_rank
    if not 1 <= r_container <= container.num_antennas:
        raise ValueError(f"container rank {r_container} outside [1, {container.num_antennas}]")
    if not 1 <= r_contained <= contained.num_antennas:
        raise ValueError(f"contained rank {r_contained} outside [1, {contained.num_antennas}]")
    basis = container.eigenvectors[:, :r_container]
    probes = contained.eigenvectors[:, :r_contained]
    leakage = probes - basis @ (basis.conj().T @ probes)
    return float(np.linalg.norm(leakage) ** 2 / r_contained)
