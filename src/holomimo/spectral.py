"""Eigenstructure analysis of correlation matrices.

Dense holographic arrays produce rank-deficient correlation matrices; the
quantities here measure how small the significant eigenspace is and whether
one model's eigenspace fits inside another's. `spectrum` gives eigenvalues
and ranks only; `eigendecompose` adds the eigenvectors.

Both share one solve sequence. A centro-Hermitian matrix
(J R J = conj(R), J the exchange matrix), which every builder's is, is
turned by a sparse unitary Q into the real symmetric Q^H R Q (A. Lee,
"Centrohermitian and skew-centrohermitian matrices", Linear Algebra Appl.
29, 1980), which LAPACK solves several times faster than the Hermitian
matrix. A real centro-symmetric matrix, such as the isotropic one, splits
into two real parity blocks of half the size. The matrix itself answers
which structure it has (CorrelationMatrix._structure). Whichever operands
the structure gives, one LAPACK call solves each, one sort merges their
eigenvalues, one rank cut counts the eigenvectors to keep, and one map
(Q's) writes them back.

A builder's matrix is read from its offset table throughout: the real
form and the parity blocks are filled from its first ceil(M/2) rows, one
block copied from the table at a time, and the trace is that of its
pinned diagonal, so neither entry point forms its dense complex `entries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# One piece of a basis in a frame: (frame rows, ascending basis positions of
# its columns, the columns themselves, real and C-contiguous in a real frame).
_Piece = tuple[slice, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class EigenBasis(Spectrum):
    """A Spectrum plus the eigenvectors of its numerical rank.

    `eigenvectors` is complex128 of shape (M, numerical_rank): column k is
    the unit eigenvector of eigenvalue k. Columns past the numerical rank,
    whose eigenvalues fall below RANK_TOLERANCE * lambda_max, are not kept
    (since 0.5.0). Every estimator and the containment residual read only
    leading columns.

    A basis from eigendecompose of a centro-Hermitian matrix also keeps,
    privately, the real eigenvectors the solver computed, as pieces of the
    same columns in a real frame (see _solve): `eigenvectors` is Q W, with
    Q the sparse unitary of Lee's real form and W real. Lee's real form
    gives one piece, W = V, M x r. The parity blocks give two, the kept
    columns of the plus block on the frame's first ceil(M/2) rows and those
    of the minus block on its last floor(M/2) rows; there the frame is
    Q diag(I, -iI), whose unit phase no projector or energy sees. The
    Monte Carlo engine and the containment residual compute in that frame
    with real products. A basis built by hand, or from a dense matrix
    solved as it is, keeps no pieces, and both compute with the complex
    `eigenvectors` in the identity frame.
    """

    eigenvectors: np.ndarray
    _real_columns: tuple[_Piece, ...] | None = field(default=None, init=False, repr=False)


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
    matrix: CorrelationMatrix, real: bool, centro_hermitian: bool
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
    if not centro_hermitian:
        return [matrix.entries.real if real else matrix.entries], [None]
    if not real:
        return [_real_form(matrix)], [((0, False, 1.0), (h, True, -1.0))]
    plus, minus = np.empty((h, h)), np.empty((n, n))
    _parity_blocks(matrix, plus, minus)
    return [plus, minus], [((0, False, 1.0),), ((0, False, -1.0),)]


def _solve(
    matrix: CorrelationMatrix, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None, tuple[_Piece, ...] | None]:
    """Descending eigenvalues; with `vectors`, also eigenvector columns and their real frame.

    One sequence serves every structure: each of _operands' matrices is
    solved by one LAPACK call, their eigenvalues merge in one stable
    descending sort, the numerical rank (eigenvalues above RANK_TOLERANCE *
    lambda_max) is counted once, and only its eigenvectors are kept. The
    real form and the parity blocks are several times cheaper to solve than
    the Hermitian R.

    The eigenvectors an operand contributes are the tail of its ascending
    output; reversed, they run in basis order. They are copied out as the
    real frame's pieces, the solver's output is freed, and each piece is
    then written through its operand's map into one C-contiguous
    complex128 array of shape (M, numerical rank). So R's eigenvectors are
    Q W, Q the sparse unitary of _real_form and W the pieces (see
    EigenBasis): Lee's real form gives one piece on all M rows, the parity
    blocks two, on the frame's first ceil(M/2) and last floor(M/2) rows,
    where Q carries the phase diag(I, -iI). A matrix solved as it is, whose
    operand is R itself, has no frame (None).

    The structure is matrix._structure()'s answer, and its ValueError
    reaches the caller before any solve; a builder's operands are filled
    from its table without forming its dense `entries`. Every LAPACK
    failure raises NumericalError.
    """
    real, centro_hermitian = matrix._structure()
    try:
        operands, maps = _operands(matrix, real, centro_hermitian)
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
        return values, None, None
    m = matrix.num_antennas
    n, h = m // 2, m - m // 2
    rank = _numerical_rank(values)
    position = np.argsort(order)  # the inverse sort: where each operand eigenvector lands
    frame_rows = [slice(0, m)] if len(blocks) == 1 else [slice(0, h), slice(h, m)]
    pieces = []
    start = 0
    for block, rows in zip(blocks, frame_rows):
        targets = position[start : start + block.shape[1]]
        start += block.shape[1]
        kept = int(np.count_nonzero(targets < rank))
        cut = block.shape[1] - kept
        pieces.append((rows, targets[cut:][::-1], np.ascontiguousarray(block[:, cut:][:, ::-1])))
    del blocks, block
    columns = np.zeros((m, rank), dtype=np.complex128)
    for (_, where, kept), halves in zip(pieces, maps):
        if halves is None:
            columns[:, where] = kept
            continue
        if h > n and kept.shape[0] > n:  # odd M: the real form's or plus block's middle row
            columns.real[n, where] = kept[n]
        for first, imaginary, sign in halves:
            half = kept[first : first + n] * _HALF_SQRT2
            part = columns.imag if imaginary else columns.real
            part[:n, where] = half
            half *= sign
            part[h:, where] = half[::-1]
    return values, columns, None if maps[0] is None else tuple(pieces)


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
    descending, _, _ = _solve(matrix, vectors=False)
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
    descending, eigenvectors, pieces = _solve(matrix, vectors=True)
    spec = _spectrum_from(matrix, descending)
    basis = EigenBasis(eigenvectors=eigenvectors, **vars(spec))
    object.__setattr__(basis, "_real_columns", pieces)  # private, so not an init argument
    return basis


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

    The one (I - P P^H) X of the package, applied piece by piece by
    _dropped, whose callers are subspace_containment_residual and
    estimation.monte_carlo_nmse. P^H is formed from one transient conj(P),
    a view when P is real; no conjugate copy outlives the call. P is not
    checked here: its caller either trusts an EigenBasis or Gram-checks a
    raw array.
    """
    return u1 - subspace @ (subspace.conj().T @ u1)


def _leading_pieces(basis: EigenBasis | np.ndarray, rank: int) -> tuple[_Piece, ...] | None:
    """The real-frame pieces of basis's leading `rank` columns, or None if it keeps none.

    A piece's positions ascend, so its columns among the leading `rank`
    are its first ones.
    """
    pieces = getattr(basis, "_real_columns", None)  # a raw array keeps none either
    if pieces is None:
        return None
    cut = [int(np.count_nonzero(where < rank)) for _, where, _ in pieces]
    return tuple((rows, where[:k], cols[:, :k]) for (rows, where, cols), k in zip(pieces, cut))


def _identity_piece(columns: np.ndarray) -> tuple[_Piece, ...]:
    """Columns, typically complex, as the one piece of the identity frame."""
    return ((slice(0, columns.shape[0]), np.arange(columns.shape[1]), columns),)


def _shared_frame(
    container: EigenBasis | np.ndarray, container_rank: int, truth: EigenBasis, rank: int
) -> tuple[tuple[_Piece, ...], tuple[_Piece, ...], bool]:
    """The leading columns of a container and of a truth basis as pieces of one frame.

    Returns both piece tuples and whether the frame is the truth's real
    one. It is when the container's real pieces live in it too. Parity
    pieces do in both real frames: each lies on one half of the frame's
    rows, and the unit phase between the frames multiplies whole pieces,
    so P P^H and every energy are the same in either. Lee's pieces live
    only in Lee's frame. Otherwise both are the columns of the identity
    frame: a raw array (taken whole), a basis built by hand, or a truth
    without real pieces.
    """
    truth_pieces = _leading_pieces(truth, rank)
    container_pieces = _leading_pieces(container, container_rank)
    if truth_pieces is not None and container_pieces is not None:
        if len(container_pieces) == 2 or len(truth_pieces) == 1:
            return container_pieces, truth_pieces, True
    if isinstance(container, EigenBasis):
        container = container.eigenvectors[:, :container_rank]
    return _identity_piece(container), _identity_piece(truth.eigenvectors[:, :rank]), False


def _dropped(
    container: tuple[_Piece, ...], truth: tuple[_Piece, ...]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(I - P P^H) W in a shared frame, as (positions, rows) per piece of W.

    P P^H is block diagonal on the container's pieces, so each truth piece
    is projected by the container pieces whose rows it spans, each on its
    own rows: two real half-height products when Lee's M-row piece meets
    the parity blocks, one when a parity piece meets its own half, one
    complex product in the identity frame.
    """
    dropped = []
    for rows, where, columns in truth:
        parts = [
            _projection(subspace, columns[part.start - rows.start : part.stop - rows.start])
            for part, _, subspace in container
            if rows.start <= part.start and part.stop <= rows.stop
        ]
        dropped.append((where, parts[0] if len(parts) == 1 else np.concatenate(parts)))
    return dropped


def _frame_noise(noise: np.ndarray, parity: bool) -> np.ndarray:
    """Q^H n for each row n of a complex trials x M block, stacked real: real parts over imaginary.

    With n_top = n[:M//2], n_bot = n[M - M//2:] reversed, s and d the sum
    and difference of the two over sqrt(2), Lee's frame gives
    [s; n_mid; -i d] (n_mid only for odd M) and the parity frame,
    Q diag(I, -iI), gives [s; n_mid; d]. O(M) per trial; Q is unitary, so
    the result is CN(0, I) again.
    """
    trials, m = noise.shape
    n, h = m // 2, m - m // 2
    out = np.empty((2, trials, m))
    for k, part in enumerate((noise.real, noise.imag)):
        top, bottom = part[:, :n], part[:, h:][:, ::-1]
        np.add(top, bottom, out=out[k, :, :n])
        out[k, :, n:h] = part[:, n:h]
        if parity:
            np.subtract(top, bottom, out=out[k, :, h:])
        elif k == 0:  # -i d: the real part of d goes, negated, to the imaginary rows
            np.subtract(bottom, top, out=out[1, :, h:])
        else:
            np.subtract(top, bottom, out=out[0, :, h:])
    out[:, :, :n] *= _HALF_SQRT2
    out[:, :, h:] *= _HALF_SQRT2
    return out.reshape(2 * trials, m)


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

    The leakage is computed in the bases' shared frame (_shared_frame):
    for the isotropic container of a solved clustered or isotropic basis,
    two real half-height products. Q is unitary and a frame's phase
    multiplies whole pieces, so the leakage's norm is the same in every
    frame.
    """
    if container.num_antennas != contained.num_antennas:
        raise ValueError(
            f"dimension mismatch: {container.num_antennas} vs {contained.num_antennas}"
        )
    r_container = container.numerical_rank if container_rank is None else container_rank
    r_contained = contained.effective_rank if contained_rank is None else contained_rank
    _checked_rank(r_container, container.eigenvectors.shape[1], "container")
    _checked_rank(r_contained, contained.eigenvectors.shape[1], "contained")
    outer, inner, _ = _shared_frame(container, r_container, contained, r_contained)
    leakage = sum(np.linalg.norm(rows) ** 2 for _, rows in _dropped(outer, inner))
    return float(leakage / r_contained)
