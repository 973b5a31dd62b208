"""Eigenstructure analysis of correlation matrices.

Dense holographic arrays produce rank-deficient correlation matrices; the
quantities here measure how small the significant eigenspace is and whether
one model's eigenspace fits inside another's. `spectrum` gives eigenvalues
and ranks only; `eigendecompose` adds the eigenvectors.
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


def _solve(matrix: CorrelationMatrix, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues, plus eigenvector columns when `vectors` is set.

    A matrix whose imaginary part is exactly zero is handed to LAPACK as its
    real part: the real symmetric solve is several times cheaper than the
    Hermitian one. The isotropic matrix always takes this path.
    """
    entries = matrix.entries
    if np.iscomplexobj(entries) and not entries.imag.any():
        entries = entries.real
    try:
        if vectors:
            return np.linalg.eigh(entries)
        return np.linalg.eigvalsh(entries), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {matrix.provenance.label} matrix "
            f"(M={matrix.num_antennas}): {exc}"
        ) from exc


def _spectrum_from(matrix: CorrelationMatrix, ascending: np.ndarray) -> Spectrum:
    """Order, PSD-check, clamp and rank the solver's ascending eigenvalues.

    The one PSD check of the package: eigenvalues within -PSD_TOLERANCE *
    lambda_max of zero are rounding artifacts and are clamped to zero;
    anything more negative raises NumericalError.
    """
    values = ascending[::-1].copy()
    largest = float(values[0])
    if largest <= 0:
        raise NumericalError("correlation matrix has no positive eigenvalue")
    floor = -PSD_TOLERANCE * largest
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
    ascending, _ = _solve(matrix, vectors=False)
    return _spectrum_from(matrix, ascending)


def eigendecompose(matrix: CorrelationMatrix, *, vectors: bool = True) -> EigenBasis | Spectrum:
    """Full eigendecomposition with rank metadata, eigenvalues descending.

    Eigenvalues go through the same PSD check and clamp as spectrum(). A
    matrix whose imaginary part is exactly zero is decomposed in real
    arithmetic; its eigenvectors are still returned as complex128.
    `vectors=False` skips the eigenvectors and returns spectrum(matrix).
    """
    if not vectors:
        return spectrum(matrix)
    ascending, columns = _solve(matrix, vectors=True)
    spec = _spectrum_from(matrix, ascending)
    eigenvectors = np.ascontiguousarray(columns[:, ::-1], dtype=np.complex128)
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
