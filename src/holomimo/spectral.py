"""Eigenstructure analysis of correlation matrices.

Dense holographic arrays produce rank-deficient correlation matrices; the
quantities here measure how small the significant eigenspace is and whether
one model's eigenspace fits inside another's. `spectrum` gives eigenvalues
and ranks only; `eigendecompose` adds the eigenvectors.

Both share one solve sequence. Every builder's matrix is centro-Hermitian
(J R J = conj(R), J the exchange matrix), so a sparse unitary Q turns it
into the real symmetric Q^H R Q (A. Lee, "Centrohermitian and
skew-centrohermitian matrices", Linear Algebra Appl. 29, 1980), which LAPACK
solves several times faster than the Hermitian matrix. A real
centro-symmetric matrix, such as the isotropic one, splits into two real
parity blocks of half the size. A builder's matrix has that structure by
type, so the dispatch reads it from the matrix's offset table in O(M). A
dense matrix (loaded or external) is tested exactly: one that is not
Hermitian raises ValueError, and one that lacks the centro-Hermitian
symmetry is solved as it is. Whichever operands the structure gives, one
LAPACK call solves each, one sort merges their eigenvalues, one rank cut
counts the eigenvectors to keep, and one map (Q's) writes them back.

A builder's matrix is read from its offset table throughout: the real
form and the parity blocks are filled from its first ceil(M/2) rows, one
block copied from the table at a time, and the trace is that of its
pinned diagonal, so neither entry point forms its dense complex `entries`.
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
    """A Spectrum plus the eigenvectors of its numerical rank.

    `eigenvectors` is complex128 of shape (M, numerical_rank): column k is
    the unit eigenvector of eigenvalue k. Columns past the numerical rank,
    whose eigenvalues fall below RANK_TOLERANCE * lambda_max, are not kept
    (since 0.5.0). Every estimator and the containment residual read only
    leading columns.
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


def _numerical_rank(descending: np.ndarray) -> int:
    """Count of descending eigenvalues above RANK_TOLERANCE times the first.

    Clamping negatives to zero does not change the count, so the solvers
    know it, and with it how many eigenvector columns to write, before the
    PSD check runs.
    """
    return int(np.count_nonzero(descending > RANK_TOLERANCE * descending[0]))


def _parity_blocks(
    matrix: CorrelationMatrix,
    plus: np.ndarray,
    minus: np.ndarray,
    form: np.ndarray | None = None,
) -> None:
    """Write Lee's real form of R, or its diagonal blocks, from R's first ceil(M/2) rows.

    With n = M // 2, A = R[:n, :n], BJ = R[:n, M-n:] with its columns
    reversed and x = R[:n, n] (odd M), `plus` (ceil(M/2) square) gets
    Re(A+BJ), bordered for odd M by sqrt(2) Re x and R[n, n], and `minus`
    (n square) gets Re(A-BJ). Given the whole real form `form`, of which
    `plus` and `minus` are the diagonal blocks, its off-diagonal blocks get
    Im(A+BJ) and -Im(A-BJ), bordered by sqrt(2) Im x (see _real_form).

    The rows come from matrix._row_blocks, one block at a time: views of a
    dense matrix's `entries`, or a builder's rows copied from its offset
    table into a reused buffer, which is why each block is written out
    before the next is drawn. Every value is one elementwise operation on
    an entry, so both sources give the same bits.
    """
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    start = 0
    for rows in matrix._row_blocks(upper=False):
        stop = min(start + rows.shape[0], n)
        top = rows[: stop - start]
        a, bj = top[:, :n], top[:, h:][:, ::-1]
        np.add(a.real, bj.real, out=plus[start:stop, :n])
        np.subtract(a.real, bj.real, out=minus[start:stop])
        if form is not None:
            np.add(a.imag, bj.imag, out=form[h + start : h + stop, :n])
            np.subtract(bj.imag, a.imag, out=form[start:stop, h:])
        if h > n:
            x = top[:, n]
            plus[n, start:stop] = plus[start:stop, n] = _SQRT2 * x.real
            if form is not None:
                form[n, h + start : h + stop] = form[h + start : h + stop, n] = _SQRT2 * x.imag
            if start <= n < start + rows.shape[0]:
                plus[n, n] = rows[n - start, n].real
        start += rows.shape[0]
        if start >= h:
            break


def _real_form(matrix: CorrelationMatrix) -> np.ndarray:
    """The real symmetric matrix Q^H R Q of a centro-Hermitian R (Lee 1980).

    With n, A, BJ and x as in _parity_blocks,
    Q = [[I, 0, iI], [0, sqrt(2), 0], [J, 0, -iJ]] / sqrt(2) (the middle row
    and column only for odd M) gives

        [[Re(A+BJ),      sqrt(2) Re x,  -Im(A-BJ)],
         [sqrt(2) Re x^T, R[n, n],       sqrt(2) Im x^T],
         [Im(A+BJ),      sqrt(2) Im x,   Re(A-BJ)]]

    Every block is elementwise on the first ceil(M/2) rows of R, filled by
    _parity_blocks without forming R.
    """
    m = matrix.num_antennas
    h = m - m // 2
    form = np.empty((m, m))
    _parity_blocks(matrix, form[:h, :h], form[h:, h:], form)
    return form


def _operands(
    matrix: CorrelationMatrix, real: bool
) -> tuple[list[np.ndarray], list[tuple[tuple[int, bool, float], ...] | None]]:
    """The symmetric matrices whose eigenpairs make up R's, and how each maps back.

    A complex centro-Hermitian R gives Lee's real form (see _real_form), a
    real one its two parity blocks Re(A+BJ) (bordered for odd M) and
    Re(A-BJ), which are the real form's diagonal blocks, and any other
    matrix R itself, in real arithmetic when its imaginary part is exactly
    zero. Each operand's map lists its halves (first row, imaginary, sign):
    n rows V of its eigenvectors land, scaled by 1/sqrt(2), as V in the
    first n rows of R's eigenvectors and as sign * JV in the last n, in
    their real or imaginary part; the middle row of odd M is copied as it
    is. So the real form maps [V1; v; V2] to
    [(V1 + i V2); sqrt(2) v; J (V1 - i V2)] / sqrt(2), a parity block v to
    the real [v; sqrt(2) v_mid; +-Jv] / sqrt(2) (v_mid in the plus block
    only), and a map of None copies the eigenvectors as they are.
    """
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    if matrix._offsets is None and not matrix._is_centro_hermitian():
        return [matrix.entries.real if real else matrix.entries], [None]
    if not real:
        return [_real_form(matrix)], [((0, False, 1.0), (h, True, -1.0))]
    plus, minus = np.empty((h, h)), np.empty((n, n))
    _parity_blocks(matrix, plus, minus)
    return [plus, minus], [((0, False, 1.0),), ((0, False, -1.0),)]


def _solve(matrix: CorrelationMatrix, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Descending eigenvalues, plus eigenvector columns when `vectors` is set.

    One sequence serves every structure: each of _operands' matrices is
    solved by one LAPACK call, their eigenvalues merge in one stable
    descending sort, the numerical rank (eigenvalues above RANK_TOLERANCE *
    lambda_max) is counted once, and only its eigenvectors are written
    back, through each operand's map, as a C-contiguous complex128 array of
    shape (M, numerical rank). The real form and the parity blocks are
    several times cheaper to solve than the Hermitian R. The eigenvectors an
    operand contributes are the tail of its ascending output, so they are
    scaled in place in a view, and the operands are freed together once
    the last is solved.

    The structure comes from the type where it can: a builder's matrix is
    centro-Hermitian by construction and real exactly when its O(M) offset
    table is, so neither O(M^2) scan runs on it, and its operands are
    filled from the table without forming its dense `entries`. A dense
    matrix (loaded or external) is tested exactly, without tolerance:
    first for Hermitian symmetry, which LAPACK assumes when it reads one
    triangle, so a matrix without it raises ValueError before any solve;
    then for centro-Hermitian symmetry, and if it lacks that it is solved
    as is. Every LAPACK failure raises NumericalError.
    """
    table = matrix._offsets
    real = not (matrix._checked_entries() if table is None else table).imag.any()
    try:
        operands, maps = _operands(matrix, real)
        if vectors:
            parts, blocks = zip(*[np.linalg.eigh(operand) for operand in operands])
        else:
            parts = [np.linalg.eigvalsh(operand) for operand in operands]
        del operands
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {matrix.provenance.label} matrix "
            f"(M={matrix.num_antennas}): {exc}"
        ) from exc
    values = np.concatenate(parts)
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    if not vectors:
        return values, None
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    rank = _numerical_rank(values)
    position = np.argsort(order)  # the inverse sort: where each operand eigenvector lands
    columns = np.zeros((m, rank), dtype=np.complex128)
    start = 0
    for block, halves in zip(blocks, maps):
        targets = position[start : start + block.shape[1]]
        start += block.shape[1]
        kept = int(np.count_nonzero(targets < rank))
        tail, where = block[:, block.shape[1] - kept :], targets[targets.size - kept :]
        if halves is None:
            columns[:, where] = tail
            continue
        if h > n and block.shape[0] > n:  # odd M: the real form's or plus block's middle row
            columns.real[n, where] = tail[n]
        for first, imaginary, sign in halves:
            half = tail[first : first + n]
            half *= _HALF_SQRT2
            part = columns.imag if imaginary else columns.real
            part[:n, where] = half
            half *= sign
            part[h:, where] = half[::-1]
    return values, columns


def _spectrum_from(
    matrix: CorrelationMatrix, descending: np.ndarray, psd_tol: float = PSD_TOLERANCE
) -> Spectrum:
    """PSD-check, clamp and rank the solver's descending eigenvalues.

    The one PSD check, shared by both spectral entry points and
    CorrelationMatrix.validate(): eigenvalues within -psd_tol * lambda_max of
    zero are rounding artifacts and are clamped to zero; anything more
    negative raises NumericalError. So do non-finite eigenvalues, which
    LAPACK returns for a matrix with Inf entries and which would pass every
    NaN comparison below.
    """
    if not np.isfinite(descending).all():
        raise NumericalError(
            f"eigensolver returned non-finite eigenvalues "
            f"(provenance {matrix.provenance.label}, M={matrix.num_antennas})"
        )
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
        numerical_rank=_numerical_rank(descending),
        effective_rank=effective_rank(values),
        source_trace=matrix._trace(),
    )


def spectrum(matrix: CorrelationMatrix) -> Spectrum:
    """Eigenvalues and rank metadata without eigenvectors, eigenvalues descending.

    Negative eigenvalues within -PSD_TOLERANCE * lambda_max of zero are
    clamped to zero; anything more negative raises NumericalError. Real
    matrices are solved in real arithmetic, as in eigendecompose. A dense
    matrix that is not exactly Hermitian raises ValueError, in both; one
    that fails the scan on a NaN is reported as having non-finite entries.
    """
    descending, _ = _solve(matrix, vectors=False)
    return _spectrum_from(matrix, descending)


def eigendecompose(matrix: CorrelationMatrix, *, vectors: bool = True) -> EigenBasis | Spectrum:
    """Eigendecomposition with rank metadata, eigenvalues descending.

    Eigenvalues go through the same PSD check and clamp as spectrum(). All
    M eigenvalues are returned, and the eigenvectors of the numerical rank:
    an (M, numerical_rank) complex128 array. A matrix whose imaginary part
    is exactly zero is decomposed in real arithmetic; its eigenvectors are
    still returned as complex128.
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


def _checked_rank(rank: int, size: int, name: str) -> int:
    """`rank` if it lies in [1, size]; else ValueError "<name> rank ... outside [1, size]"."""
    if not 1 <= rank <= size:
        raise ValueError(f"{name} rank {rank} outside [1, {size}]")
    return rank


def _projection(subspace: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """(I - P P^H) U_1: the part of U_1's columns that projecting onto P drops.

    The one (I - P P^H) X of the package, with two callers:
    subspace_containment_residual, whose U_1 is the contained eigenvectors,
    and estimation.monte_carlo_nmse, whose U_1 is the truth basis and P the
    container. P^H is formed from one transient conj(P); no conjugate copy
    outlives the call. P is not checked here: its caller either trusts an
    EigenBasis or Gram-checks a raw array.
    """
    return u1 - subspace @ (subspace.conj().T @ u1)


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
    to 1 measure how much energy escapes the container span. Either rank
    may be at most the number of columns its basis holds.
    """
    if container.num_antennas != contained.num_antennas:
        raise ValueError(
            f"dimension mismatch: {container.num_antennas} vs {contained.num_antennas}"
        )
    r_container = container.numerical_rank if container_rank is None else container_rank
    r_contained = contained.effective_rank if contained_rank is None else contained_rank
    _checked_rank(r_container, container.eigenvectors.shape[1], "container")
    _checked_rank(r_contained, contained.eigenvectors.shape[1], "contained")
    probes = contained.eigenvectors[:, :r_contained]
    leakage = _projection(container.eigenvectors[:, :r_container], probes)
    return float(np.linalg.norm(leakage) ** 2 / r_contained)
