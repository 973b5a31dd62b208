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
the structure gives, each is solved once, one sort merges their
eigenvalues and one rank cut counts the eigenvectors to keep. They are
kept as the solver computed them, real, and Q's map to R's complex
eigenvectors runs only where `EigenBasis.eigenvectors` is read.

Every real operand is this module's own: the real form and the parity
blocks are built for the solve, and a dense real matrix's real part is
copied out of its `entries`. Each is solved in place, through numpy's own
LAPACKE (see _lapacke), where np.linalg would first copy it, and copy the
eigenvectors out again. One sequence solves it, with or without
eigenvectors: the steps of dsyevd, the routine numpy's eigh and eigvalsh
call, run one by one (see _eigenpairs), dsyevd's scaling included, so the
eigenvalues are numpy's bits at any gain. With eigenvectors, divide and
conquer runs on the tridiagonal and the back-transform on the kept
columns alone. Only a complex operand, which is a dense caller's
`entries` itself, and any operand where numpy's LAPACK does not export
these routines under names known here, go through np.linalg's copies.

A builder's matrix is read from its offset table throughout: the real
form and the parity blocks are filled from its first ceil(M/2) rows, one
block copied from the table at a time, and the trace is that of its
pinned diagonal, so neither entry point forms its dense complex `entries`.

This module owns the frames a basis holds its columns in (see EigenBasis),
and with them every product that depends on a frame: the containment
residual's, and the Monte Carlo engine's per-block products, which
estimation.monte_carlo_nmse takes from _block_products without knowing
which frame they run in.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import tempfile
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import BinaryIO, NamedTuple

import numpy as np

from .correlation import PSD_TOLERANCE, CorrelationMatrix
from .errors import NumericalError
from .geometry import ArrayGeometry

RANK_TOLERANCE = 1e-12
EFFECTIVE_RANK_COMPLEMENT = 1e-5
_SQRT2 = np.sqrt(2.0)
_HALF_SQRT2 = np.sqrt(0.5)
# Columns per block where _shared_frame projects complex columns in place:
# three M x 128 complex temporaries next to its M x r result.
_COLUMN_BLOCK = 128


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
    leading columns; `num_columns` counts the columns held.

    A basis holds its columns once, as pieces in a frame (see _solve):
    `eigenvectors` is Q W, with Q the frame's unitary and W the pieces. A
    basis from eigendecompose of a centro-Hermitian matrix keeps the real
    columns its solver computed, and forms `eigenvectors` from them on
    first read, then keeps it. Lee's frame ("lee") has the sparse unitary
    of Lee's real form and one piece, W = V, M x r. The parity frame
    ("parity") has two, the kept columns of the plus block on its first
    ceil(M/2) rows and those of the minus block on its last floor(M/2)
    rows; its Q is Lee's times diag(I, -iI), a unit phase that no
    projector or energy sees. The Monte Carlo engine and the containment
    residual compute in these frames with real products and never read
    `eigenvectors`; where two bases share no frame they form the complex
    columns for the call only (see _shared_frame). A basis built by hand,
    or from a dense matrix solved as it is, is the one piece of the
    identity frame ("identity"), and its `eigenvectors` is the very array
    it holds: 2-D, one row per eigenvalue and at least `numerical_rank`
    columns, or ValueError.

    So is the result of dataclasses.replace on a basis from eigendecompose:
    replace reads `eigenvectors` to hand it to the constructor, which forms
    the 16 M r bytes of complex columns and keeps them on the source basis,
    and the new basis holds them in the identity frame, where the Monte
    Carlo engine and the containment residual run complex products instead
    of real ones. Its numbers agree with the source's up to rounding.
    """

    eigenvectors: np.ndarray = field(repr=False)
    _real_columns: tuple[_Piece, ...] = field(init=False, repr=False)
    _frame: str = field(default="identity", init=False, repr=False)

    def __post_init__(self) -> None:  # built by hand: the array given is the identity frame
        m, rank, shape = len(self.eigenvalues), self.numerical_rank, np.shape(self.eigenvectors)
        if len(shape) != 2 or shape[0] != m or shape[1] < rank:
            raise ValueError(f"eigenvectors must have shape ({m}, k >= {rank}), got {shape}")
        object.__setattr__(self, "_real_columns", _identity_piece(self.eigenvectors))

    @property
    def num_columns(self) -> int:
        """The eigenvector columns held: the numerical rank, for a basis from eigendecompose."""
        return sum(columns.shape[1] for _, _, columns in self._real_columns)

    def __getattr__(self, name: str) -> np.ndarray:
        """A real frame's `eigenvectors`, formed on first read and kept.

        Python calls this only for an attribute the instance lacks, which a
        basis from eigendecompose in a real frame is for `eigenvectors`
        until it is read.
        """
        if name != "eigenvectors":
            raise AttributeError(f"'EigenBasis' object has no attribute {name!r}")
        return self.__dict__.setdefault(name, self._columns())

    def _columns(self) -> np.ndarray:
        """`eigenvectors`, Q W, formed afresh from the pieces.

        The frame's rows [0, M//2) land, scaled by 1/sqrt(2), in the real
        part of R's first and, reversed, last M//2 rows. Its last M//2 rows
        land the same way, negated in R's last rows, in the imaginary part
        in Lee's frame and in the real part in the parity frame. The middle
        row of odd M is copied as it is. So Lee's V = [V1; v; V2] becomes
        [(V1 + i V2); sqrt(2) v; J (V1 - i V2)] / sqrt(2), and a parity
        piece v the real [v; sqrt(2) v_mid; +-Jv] / sqrt(2). The identity
        frame's are a complex copy of its piece.
        """
        if self._frame == "identity":
            return self._real_columns[0][2].astype(np.complex128)
        m = self.num_antennas
        n, h = m // 2, m - m // 2
        columns = np.zeros((m, self.num_columns), dtype=np.complex128)
        bottom = columns.imag if self._frame == "lee" else columns.real
        for rows, where, kept in self._real_columns:
            if h > n and kept.shape[0] > n:  # odd M: Lee's piece's or the plus block's middle row
                columns.real[n, where] = kept[n]
            for first, part, sign in ((0, columns.real, 1.0), (h, bottom, -1.0)):
                if rows.start <= first < rows.stop:
                    half = kept[first - rows.start :][:n] * _HALF_SQRT2
                    part[:n, where] = half
                    part[h:, where] = sign * half[::-1]
        return columns


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


class _Lapacke(NamedTuple):
    """numpy's own LAPACKE routines that solve a real operand (see _lapacke)."""

    dsytrd: Callable
    dstedc: Callable
    dormtr: Callable


def _lapacke() -> _Lapacke | None:
    """numpy's own LAPACKE dsytrd, dstedc and dormtr: all three, or None.

    numpy's eigh and eigvalsh solve a float64 matrix with LAPACK's dsyevd,
    whose steps these are, from the LAPACK numpy.linalg._umath_linalg
    links; dlsym on that module also searches its dependencies, so it finds
    the routines in numpy's bundled OpenBLAS. scipy_LAPACKE_<name>64_ is
    the name in the ILP64 scipy-openblas builds numpy's wheels ship, with
    64-bit integer arguments; the matrix layout is a C int in every
    LAPACKE. An unsuffixed name is not probed: its integer width cannot be
    told from the name. Where any of the three is missing none is bound,
    and every operand goes to np.linalg.
    """
    try:
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
        routines = [getattr(library, f"scipy_LAPACKE_{name}64_") for name in _Lapacke._fields]
    except (ImportError, AttributeError, OSError):
        return None
    layout, char, int64, pointer = ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p
    arguments = (
        (layout, char, int64, pointer, int64, pointer, pointer, pointer),  # dsytrd
        (layout, char, int64, pointer, pointer, pointer, int64),  # dstedc
        (layout, char, char, char, int64, int64, pointer, int64, pointer, pointer, int64),  # dormtr
    )
    for routine, types in zip(routines, arguments):
        routine.argtypes, routine.restype = types, int64
    return _Lapacke(*routines)


_LAPACKE = _lapacke()
_COLUMN_MAJOR = 102  # LAPACK_COL_MAJOR
# dsyevd's range of the largest entry, in which an operand is solved unscaled
_RMIN = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))
_RMAX = 1.0 / _RMIN


def _checked(routine: str, info: int) -> None:
    """Raise np.linalg.LinAlgError naming the LAPACKE routine that returned a nonzero info."""
    if info:
        raise np.linalg.LinAlgError(f"LAPACKE {routine} returned info {info}")


def _in_place(operand: np.ndarray) -> bool:
    """Whether numpy's LAPACKE binds and the operand is a square, writeable, C-ordered float64.

    numpy's CARRAY flag is C-contiguous, aligned and writeable at once.
    """
    return (
        _LAPACKE is not None
        and operand.dtype == np.float64
        and operand.shape == (len(operand), len(operand))
        and operand.flags.carray
    )


def _set_aside(tails: list[np.ndarray]) -> BinaryIO:
    """dsytrd's reflector tails, in an unnamed temporary file, or in memory where none can be written.

    The file is tempfile.TemporaryFile's, in TMPDIR, and has no name on
    POSIX, so it is gone from the directory at once and its space when it
    is closed. It is flushed before the caller goes on, so a full disk
    shows here, as an OSError that keeps the tails in memory instead, one
    io.BytesIO copy; the bits _restore puts back are the same either way.
    """
    if not tails:
        return io.BytesIO()
    spill = None
    try:
        spill = tempfile.TemporaryFile()
        for tail in tails:
            spill.write(tail)
        spill.flush()
        return spill
    except OSError:
        if spill is not None:
            with contextlib.suppress(OSError):  # closing flushes the unwritten rest again
                spill.close()
        return io.BytesIO(b"".join(tails))


def _restore(tails: list[np.ndarray], reflectors: BinaryIO) -> None:
    """Read _set_aside's reflector tails back into the operand's rows, and close their file.

    A failed or short read raises np.linalg.LinAlgError, which _solve
    names the matrix in.
    """
    with reflectors:
        try:
            reflectors.seek(0)
            for tail in tails:
                if reflectors.readinto(tail) != tail.nbytes:
                    raise OSError("short read")
        except OSError as exc:
            raise np.linalg.LinAlgError(f"reading dsytrd's reflectors back failed: {exc}") from exc


def _eigenpairs(
    operand: np.ndarray, vectors: bool
) -> tuple[np.ndarray, Callable[[int], np.ndarray] | None]:
    """Ascending eigenvalues of a symmetric operand, and with `vectors` its top columns.

    The one call that solves each of _operands' matrices. With `vectors`
    it also returns top(k): the eigenvectors of the k largest eigenvalues,
    descending, as a C-contiguous n x k array. _solve calls it once, when
    the rank cut has told it k, and then drops it with everything it holds.

    A real operand that _in_place accepts is solved in its own buffer by
    the steps of dsyevd, the routine numpy's eigh and eigvalsh call, with
    or without `vectors`, but back-transforms only the columns kept. The
    C-ordered array is handed over as a column-major matrix, its
    transpose, whose lower triangle the routines read: the operand is
    exactly symmetric, so that is the matrix numpy would have copied out.
    First, as in dsyevd, an operand whose norm, its largest entry in
    magnitude, is nonzero, finite and outside [RMIN, RMAX], with RMIN =
    sqrt(tiny / eps) and RMAX = 1 / RMIN, is multiplied by the scale
    RMIN / norm or RMAX / norm, and its eigenvalues by 1 / scale at the
    end; an infinite norm is not scaled. So the eigenvalues are numpy's
    bits at any gain. dsytrd reduces the operand to a tridiagonal
    T = Q^T A Q. Without `vectors`, dstedc (COMPZ 'N', which runs dsyevd's
    dsterf) gives T's eigenvalues with O(n) workspace. With them, the
    Householder reflectors dsytrd leaves in the C-ordered array's
    a[i, i+2:], (n-1)(n-2)/2 floats, go to an unnamed temporary file (see
    _set_aside), or to one copy in memory where no file can be written.
    dstedc (COMPZ 'I': divide and conquer, M. Gu and S. C. Eisenstat, SIAM
    J. Matrix Anal. Appl. 16, 1995) writes T's eigenvectors Z over the
    buffer, as its rows, with n^2 floats of workspace: the solve's peak,
    2 n^2 floats where dsyevd holds 3 n^2 (2.5 n^2 with the reflectors in
    memory). top(k) copies Z's k kept columns out, reads the reflectors
    back in full and closes their file, and dormtr (SIDE 'R', TRANS 'T')
    applies Q to the columns in place: the n x k C-ordered array is the
    k x n column-major Z_k^T, which becomes (Q Z_k)^T. The columns are
    dsyevd's up to rounding, as dsyevd applies Q to all n columns from the
    left. An operand of 0 or 1 rows takes the same steps, with no reflector
    and Q = I, and one of 2 rows has no reflector to set aside. The
    operand is left holding LAPACK's scratch, so it must be the caller's
    own.

    A complex operand, a real one _in_place turns down, and any operand
    where numpy's LAPACK lacks one of the routines go to np.linalg, which
    copies it; there top(k) copies the kept columns out of all n. A
    failure raises np.linalg.LinAlgError naming the routine, or the failed
    read-back of the reflectors.
    """
    if not _in_place(operand):
        if not vectors:
            return np.linalg.eigvalsh(operand), None
        values, columns = np.linalg.eigh(operand)
        return values, lambda k: np.ascontiguousarray(columns[:, len(values) - k :][:, ::-1])
    size, data = len(operand), operand.ctypes.data
    lead, off = max(size, 1), max(size - 1, 0)
    norm, scale = max(operand.max(initial=0.0), -operand.min(initial=0.0)), 1.0
    if 0.0 < norm < _RMIN or _RMAX < norm < np.inf:
        scale = (_RMIN if norm < _RMIN else _RMAX) / norm
        operand *= scale
    values, off_diagonal, tau = np.empty(size), np.empty(off), np.empty(off)
    tridiagonal = (values.ctypes.data, off_diagonal.ctypes.data)
    info = _LAPACKE.dsytrd(_COLUMN_MAJOR, b"L", size, data, lead, *tridiagonal, tau.ctypes.data)
    _checked("dsytrd", info)
    tails = [operand[i, i + 2 :] for i in range(size - 2)] if vectors else []
    reflectors = _set_aside(tails)  # dsytrd's reflectors, by row
    info = _LAPACKE.dstedc(_COLUMN_MAJOR, b"I" if vectors else b"N", size, *tridiagonal, data, lead)
    if info:
        reflectors.close()
    _checked("dstedc", info)
    values *= 1.0 / scale  # dsyevd's DSCAL; exact where the operand was not scaled
    if not vectors:
        return values, None

    def top(count: int) -> np.ndarray:
        kept = np.ascontiguousarray(operand[size - count :][::-1].T)
        _restore(tails, reflectors)
        info = _LAPACKE.dormtr(
            _COLUMN_MAJOR, b"R", b"L", b"T", count, size, data, lead, tau.ctypes.data,
            kept.ctypes.data, max(count, 1),
        )  # fmt: skip
        _checked("dormtr", info)
        return kept

    weakref.finalize(top, reflectors.close)  # a top dropped unread, as on a failure, closes it
    return values, top


def _operands(matrix: CorrelationMatrix) -> tuple[str, list[np.ndarray]]:
    """R's frame and the symmetric matrices whose eigenpairs make up R's.

    The structure is matrix._structure()'s answer. A complex
    centro-Hermitian R gives Lee's real form (see _real_form) in Lee's
    frame, a real one its two parity blocks Re(A+BJ) (bordered for odd M)
    and Re(A-BJ), which are the real form's diagonal blocks, in the parity
    frame, and any other matrix R itself, in real arithmetic when its
    imaginary part is exactly zero, in the identity frame (see EigenBasis).

    Every real operand is a fresh C-contiguous float64 array that no one
    else holds, for _eigenpairs to overwrite: the real form and the parity
    blocks are built for the call, and a dense real R's real part is copied
    out, so the caller's `entries` are never written. A complex R is handed over
    as it is; np.linalg copies it.
    """
    real, centro_hermitian = matrix._structure()
    if not centro_hermitian:
        return "identity", [matrix.entries.real.copy() if real else matrix.entries]
    if not real:
        return "lee", [_real_form(matrix)]
    n, h = matrix.num_antennas // 2, matrix.num_antennas - matrix.num_antennas // 2
    plus, minus = np.empty((h, h)), np.empty((n, n))
    _parity_blocks(matrix, plus, minus)
    return "parity", [plus, minus]


def _solve(
    matrix: CorrelationMatrix, vectors: bool
) -> tuple[np.ndarray, str | None, tuple[_Piece, ...] | None]:
    """Descending eigenvalues; with `vectors`, also the frame and pieces of the eigenvectors.

    One sequence serves every structure: each of _operands' matrices is
    solved once, by _eigenpairs, their eigenvalues merge in one stable
    descending sort, the numerical rank (eigenvalues above RANK_TOLERANCE *
    lambda_max) is counted once, and only its eigenvectors are formed. The
    real form and the parity blocks are several times cheaper to solve than
    the Hermitian R.

    Each operand is solved in place where it is real: _operands builds
    every real one for the call, and it is overwritten by LAPACK's scratch
    or, with `vectors`, by its tridiagonal's eigenvectors, of which only
    the operand's share of the rank is back-transformed (see _eigenpairs).
    So a real operand's solve peaks at 2 n^2 floats, where dsyevd in place
    took 3 n^2. Without `vectors` dstedc's workspace is O(n). A
    complex operand, the caller's `entries`, goes through np.linalg, which
    copies it.

    The eigenvectors an operand contributes are the tail of its ascending
    output; reversed, they run in basis order. Each operand gives them
    C-contiguous, as the frame's pieces (see EigenBasis), and is freed as
    soon as it has: Lee's real form gives one real piece on all M rows, the
    parity blocks two, on the frame's first ceil(M/2) and last floor(M/2)
    rows, and a matrix solved as it is one piece, its eigenvectors
    themselves, real when its operand is. No complex M x r array is formed
    for a real frame; EigenBasis.eigenvectors forms it where it is read.

    matrix._structure()'s ValueError reaches the caller before any solve;
    a builder's operands are filled from its table without forming its
    dense `entries`. Every LAPACK failure raises NumericalError.
    """
    try:
        frame, operands = _operands(matrix)
        parts, tops = zip(*[_eigenpairs(operand, vectors) for operand in operands])
        del operands
        values = np.concatenate(parts)
        order = np.argsort(values, kind="stable")[::-1]
        values = values[order]
        if not vectors:
            return values, None, None
        rank = _numerical_rank(values)
        position = np.argsort(order)  # the inverse sort: where each operand eigenvector lands
        tops, pieces, start = list(tops), [], 0
        for part in parts:  # an operand's frame rows are its eigenvalues' span before the sort
            rows = slice(start, start + len(part))
            start = rows.stop
            count = int(np.count_nonzero(position[rows] < rank))
            kept = tops.pop(0)(count)  # and its operand is freed
            pieces.append((rows, position[rows][len(part) - count :][::-1], kept))
        return values, frame, tuple(pieces)
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
    negative raises NumericalError. So do non-finite eigenvalues, which
    LAPACK returns for a matrix with Inf entries and which would pass every
    NaN comparison below.

    The eigenvalues are clamped in place: every caller hands over the fresh
    array _solve returned and reads it no more. The numerical rank is
    counted on the clamped values, the same count since lambda_max > 0.
    """
    if not np.isfinite(descending).all():
        raise NumericalError(
            f"eigensolver returned non-finite eigenvalues "
            f"(provenance {matrix.provenance.label}, M={matrix.num_antennas})"
        )
    largest = float(descending[0])
    if largest <= 0:
        raise NumericalError("correlation matrix has no positive eigenvalue")
    floor = -psd_tol * largest
    smallest = float(descending[-1])
    if smallest < floor:
        raise NumericalError(
            f"matrix is not PSD within tolerance: min eigenvalue {smallest:.3e} "
            f"below {floor:.3e} (provenance {matrix.provenance.label})"
        )
    np.clip(descending, 0.0, None, out=descending)
    return Spectrum(
        eigenvalues=descending,
        numerical_rank=_numerical_rank(descending),
        effective_rank=effective_rank(descending),
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
    `eigenvectors` is an (M, numerical_rank) complex128 array. A matrix
    whose imaginary part is exactly zero is decomposed in real arithmetic;
    its eigenvectors are still complex128. The basis holds the solver's
    pieces (see _solve); for a builder's matrix, whose frame is real,
    `eigenvectors` is formed from them on first read. A dense matrix
    solved as it is gives a basis as if built by hand from its columns.
    `vectors=False` skips the eigenvectors and returns spectrum(matrix).
    """
    if not vectors:
        return spectrum(matrix)
    descending, frame, pieces = _solve(matrix, vectors=True)
    spec = _spectrum_from(matrix, descending)
    if frame == "identity":  # its one piece, complex128, as if built by hand
        return EigenBasis(eigenvectors=pieces[0][2].astype(np.complex128, copy=False), **vars(spec))
    basis = EigenBasis.__new__(EigenBasis)  # no columns to hand over: they are its pieces
    basis.__dict__.update(vars(spec), _real_columns=pieces, _frame=frame)
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
    _shared_frame, whose callers are subspace_containment_residual and
    _block_products. P^H U_1 is conj(P^T conj(U_1)): one
    transient conj(U_1), the smaller operand, and none when U_1 is real;
    no conjugate copy outlives the call. P is not checked here: its caller
    either trusts an EigenBasis or Gram-checks a raw array.
    """
    return u1 - subspace @ (subspace.T @ u1.conj()).conj()


def _leading_pieces(basis: EigenBasis | np.ndarray, rank: int) -> tuple[str, tuple[_Piece, ...]]:
    """The frame of basis and the pieces of its leading `rank` columns there.

    A raw array is the one piece of the identity frame. A piece's positions
    ascend, so its columns among the leading `rank` are its first ones.
    """
    if not isinstance(basis, EigenBasis):
        return "identity", _identity_piece(basis[:, :rank])
    cut = [int(np.count_nonzero(where < rank)) for _, where, _ in basis._real_columns]
    pieces = zip(basis._real_columns, cut)
    return basis._frame, tuple((rows, where[:k], cols[:, :k]) for (rows, where, cols), k in pieces)


def _identity_piece(columns: np.ndarray) -> tuple[_Piece, ...]:
    """Columns, typically complex, as the one piece of the identity frame."""
    return ((slice(0, columns.shape[0]), np.arange(columns.shape[1]), columns),)


def _shared_frame(
    container: EigenBasis | np.ndarray, container_rank: int, truth: EigenBasis, rank: int
) -> tuple[str, tuple[_Piece, ...], list[tuple[np.ndarray, np.ndarray]]]:
    """A frame a container and a truth basis share, and (I - P P^H) W in it.

    Returns the frame, the pieces of the container's leading columns P
    there, and (I - P P^H) W for the truth's leading `rank` columns W as
    entries (positions, rows): one per pair of a piece of W and a container
    piece whose rows it spans, holding that W piece's basis positions and
    its projection on the container piece's rows alone. Row energies and
    squared norms add over row blocks, so the entries' sum is the energy
    of the stacked projection, which is never formed. The frame is the truth's
    when the container's pieces live in it too: those of the same frame,
    and parity pieces in either real frame, since each lies on one half of
    the frame's rows and the unit phase between the frames multiplies whole
    pieces, so P P^H and every energy are the same in both. Lee's pieces
    live only in Lee's frame. P P^H is block diagonal on the container's
    pieces: Lee's M-row piece meeting the parity blocks gives two real
    half-height entries, a parity piece meeting its own half one, and the
    identity frame one complex entry.

    Otherwise the frame is the identity, with complex columns: a raw
    container with a truth in a real frame, either basis in the identity
    frame with the other in a real one, or a parity truth with a Lee
    container. A container in a real frame then gives its complex columns,
    formed for this call only (EigenBasis._columns), so none are left on
    it, and the truth's complex columns are formed afresh and projected in
    place, _COLUMN_BLOCK at a time, into one entry: no second M x rank
    array is held.
    """
    container_frame, outer = _leading_pieces(container, container_rank)
    frame, inner = _leading_pieces(truth, rank)
    if container_frame != frame and (container_frame, frame) != ("parity", "lee"):
        if container_frame != "identity":
            outer = _identity_piece(container._columns()[:, :container_rank])
        dropped = truth._columns()[:, :rank]
        for start in range(0, rank, _COLUMN_BLOCK):
            block = slice(start, start + _COLUMN_BLOCK)
            dropped[:, block] = _projection(outer[0][2], dropped[:, block])  # P: outer's one piece
        return "identity", outer, [(np.arange(rank), dropped)]
    dropped = [
        (where, _projection(subspace, columns[part.start - rows.start : part.stop - rows.start]))
        for rows, where, columns in inner
        for part, _, subspace in outer
        if rows.start <= part.start and part.stop <= rows.stop
    ]
    return frame, outer, dropped


def _row_energy(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of a complex block.

    A real block is read as a frame's stacked complex one, real parts over
    imaginary parts (see _block_products): one norm per trial.
    """
    if np.iscomplexobj(rows):
        real, imag = rows.real, rows.imag
    else:
        real, imag = rows[: rows.shape[0] // 2], rows[rows.shape[0] // 2 :]
    energy = real**2
    energy += imag**2
    return energy.sum(axis=1)


def _block_products(
    truth: EigenBasis, width: int, container: EigenBasis | np.ndarray | None, container_rank: int
) -> Callable[[np.ndarray, np.ndarray], tuple]:
    """The Monte Carlo engine's per-block products, in the frames its bases give.

    Returns products(a, n) for a block of trials, one row each: the
    channel's coordinates a on the truth's U_1 and the block's complex
    noise n, which it conjugates in place. products gives three things:
    the truth frame's coordinates; U_1^H n over `width` leading columns of
    `truth` (0 columns when neither MMSE nor RS-LS needs it), up to a
    conjugation; and the container's (residual, noise) energies per trial,
    ||(I - P P^H) h||^2 and ||P^H n||^2 for P the leading `container_rank`
    columns of `container`, or 0 and 0 when it is None.

    The products run in the truth's own frame, read once from its pieces
    (see EigenBasis), and never form its complex `eigenvectors`. A basis
    from eigendecompose of a builder's matrix is U_1 = Q W with W real: V
    from Lee's real form for a clustered model, the parity blocks' columns
    for the isotropic one. Each block's noise is mapped once, n' = Q^H n,
    O(M) per trial: with n_top = n[:M//2], n_bot = n[M - M//2:] reversed
    and s, d their sum and difference over sqrt(2), Lee's frame gives
    [s; n_mid; -i d] (n_mid only for odd M) and the parity frame,
    Q diag(I, -iI), gives [s; n_mid; d], CN(0, I) again since Q is
    unitary. n' and a are stacked real, real parts over imaginary parts,
    so U_1^H n = W^T n' is one real GEMM, and RSLS reads its noise energy
    ||U_1[:, :k]^H n||^2 off the first k columns of that product. A
    container with real pieces in that frame (the isotropic EigenBasis;
    see _shared_frame) is projected in it too: ||P^H n||^2 is
    ||P_+^T n'_top||^2 + ||P_-^T n'_bottom||^2, over the first ceil(M/2)
    and last floor(M/2) coordinates, and (I - P P^H) U_1 is two real
    half-height products on W, kept as two arrays: each one's residual
    energy is summed over its own rows.

    A basis in the identity frame (built by hand, or solved from a dense
    matrix as it is) runs the same products with complex coordinates, on
    the block's noise conjugated in place and conj(a): conj(n)^T U_1 is
    conj(U_1^H n), and every error is conjugated, with the same energy. So
    does a container without a frame shared with the truth, such as a raw
    array: ||P^H n||^2 is ||conj(n)^T P||^2, and (I - P P^H) U_1 projects
    the truth's complex columns, formed afresh for it; a container basis in
    a real frame gives its complex columns for the call only and keeps
    none. No conjugate copy of a basis is held. Besides the bases, the
    products hold the container's (I - P P^H) U_1, M x r in all, r the
    numerical rank of `truth`: real and split over the container's pieces'
    rows in a real frame, one complex array otherwise.

    Which frame a product runs in depends on the bases alone, never on
    `width` or on whether a container is given. A caller that asks for the
    same `width` whenever it reads U_1^H n therefore gets the same numbers
    for each estimator whichever others it runs.
    """
    frame, pieces = _leading_pieces(truth, width)
    shared, outer, dropped = frame, (), ()  # no container: energies of nothing, 0
    if container is not None:
        rank = truth.numerical_rank  # (I - P P^H) U_1 over all of U_1
        shared, outer, dropped = _shared_frame(container, container_rank, truth, rank)

    def products(a: np.ndarray, noise: np.ndarray) -> tuple:
        if frame == "identity":
            frame_noise, frame_a = noise, a.conj()
        else:
            trials, m = noise.shape
            n, h = m // 2, m - m // 2
            frame_noise = np.empty((2, trials, m))  # its one reference, rebound below
            for k, part in enumerate((noise.real, noise.imag)):
                top, bottom = part[:, :n], part[:, h:][:, ::-1]
                np.add(top, bottom, out=frame_noise[k, :, :n])
                frame_noise[k, :, n:h] = part[:, n:h]
                # d as it is in the parity frame; Lee's -i d puts Im d over -Re d
                np.subtract(top, bottom, out=frame_noise[k if frame == "parity" else 1 - k, :, h:])
            frame_noise[:, :, :n] *= _HALF_SQRT2
            frame_noise[0, :, h:] *= _HALF_SQRT2
            frame_noise[1, :, h:] *= _HALF_SQRT2 if frame == "parity" else -_HALF_SQRT2
            frame_noise = frame_noise.reshape(2 * trials, m)
            frame_a = np.concatenate((a.real, a.imag))
        np.conjugate(noise, out=noise)
        a_noise = np.empty((frame_noise.shape[0], width), dtype=frame_noise.dtype)
        for rows, where, columns in pieces:
            a_noise[:, where] = frame_noise[:, rows] @ columns
        x, coordinates = (noise, a) if shared == "identity" else (frame_noise, frame_a)
        container_noise = sum(_row_energy(x[:, part] @ p) for part, _, p in outer)
        del x, frame_noise  # Q^H n goes before the M-wide residual product
        residual = sum(_row_energy(coordinates[:, where] @ d.T) for where, d in dropped)
        return frame_a, a_noise, (residual, container_noise)

    return products


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

    The leakage is computed in the bases' shared frame (_shared_frame),
    as entries on the container pieces' rows, and its squared norm is the
    sum of theirs: for the isotropic container of a solved clustered or
    isotropic basis, two real half-height arrays, never stacked. Q is
    unitary and a frame's phase multiplies whole pieces, so the leakage's
    norm is the same in every frame. Where the bases share no real frame
    the container's complex columns are formed for the call only.
    """
    if container.num_antennas != contained.num_antennas:
        raise ValueError(
            f"dimension mismatch: {container.num_antennas} vs {contained.num_antennas}"
        )
    r_container = container.numerical_rank if container_rank is None else container_rank
    r_contained = contained.effective_rank if contained_rank is None else contained_rank
    _checked_rank(r_container, container.num_columns, "container")
    _checked_rank(r_contained, contained.num_columns, "contained")
    _, _, dropped = _shared_frame(container, r_container, contained, r_contained)
    return float(sum(np.linalg.norm(rows) ** 2 for _, rows in dropped) / r_contained)
