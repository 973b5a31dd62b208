"""Pilot-based channel estimation and NMSE evaluation.

The channel h ~ CN(0, R) is observed once through y = sqrt(snr) * h + n with
n ~ CN(0, I). Estimators differ in how much of R they use: MMSE needs the
full eigenstructure, reduced-subspace least squares (RS-LS) needs only an
eigenspace, the conservative RS-LS variant needs merely some subspace known
to contain the channel, and plain LS needs nothing. Every estimator has a
closed-form NMSE oracle next to the Monte Carlo path so simulations can be
checked against analysis at run time.

NMSE is normalized by tr(R): E[||h_hat - h||^2] / tr(R).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OracleInvalidError
from .spectral import EigenBasis, _block_products, _checked_rank, _row_energy

GRAM_TOLERANCE = 1e-8
CONTAINMENT_TOLERANCE = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Trials per Monte Carlo block. Fixed, so the shape of every projection GEMM
# depends on no argument but `trials`, which sets the last block's row count.
# With more than one BLAS thread a trial's rounding depends on its block's
# row count, so on `trials` too. Small enough that a block's temporaries stay
# below the solver's peak.
MC_BLOCK_TRIALS = 64


class Estimator(enum.Enum):
    """Estimator family; values double as stable identifiers in output files."""

    MMSE = "mmse"
    LS = "ls"
    RSLS = "rsls"
    CONSERVATIVE_RSLS = "conservative-rsls"


@dataclass(frozen=True)
class PilotObservation:
    """One received pilot y = sqrt(snr) * h + n, with the linear-scale SNR."""

    received: np.ndarray
    snr: float

    def __post_init__(self) -> None:
        if self.received.ndim != 1:
            raise ValueError(f"received pilot must be a vector, got shape {self.received.shape}")
        _checked_snrs(self.snr)


@dataclass(frozen=True)
class ChannelEstimate:
    """An estimate of the channel vector, tagged with the estimator that made it."""

    h_hat: np.ndarray
    estimator: Estimator


def _checked_snrs(snr: float | Sequence[float]) -> np.ndarray:
    """One SNR or a grid of them as a 1-D float array; each must be finite and positive.

    An infinite SNR would divide the noise by infinity and turn the MMSE
    shrinkage into inf / inf, so it is rejected along with zero and negatives.
    """
    snrs = np.atleast_1d(np.asarray(snr, dtype=float))
    if snrs.ndim != 1 or snrs.size == 0 or not np.all((snrs > 0) & (snrs < np.inf)):
        raise ValueError(f"snr must be finite and positive (linear scale), got {snr}")
    return snrs


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric CN(0, 1) samples: unit total variance, split re/im.

    The real parts are drawn first, then the imaginary parts, each scaled
    by 1/sqrt(2) where it is written: the bits of (a + 1j b) / sqrt(2),
    which numpy computes as a product with that reciprocal, without its
    complex temporaries.
    """
    samples = np.empty(size, dtype=np.complex128)
    samples.real = rng.standard_normal(size) * _INV_SQRT2
    samples.imag = rng.standard_normal(size) * _INV_SQRT2
    return samples


def sample_channel(basis: EigenBasis, rng: np.random.Generator) -> np.ndarray:
    """Draw h ~ CN(0, R) through the numerical-rank eigenspace of R.

    h = U_1 diag(sqrt(lambda_1)) v with v ~ CN(0, I_r); eigenvalues below the
    numerical rank cutoff carry no energy worth sampling.
    """
    r = basis.numerical_rank
    v = complex_normal(rng, r)
    return basis.eigenvectors[:, :r] @ (np.sqrt(basis.eigenvalues[:r]) * v)


def observe_pilot(
    channel: np.ndarray, snr: float, rng: np.random.Generator
) -> PilotObservation:
    """Pass a channel realization through the pilot model at the given SNR."""
    _checked_snrs(snr)
    noise = complex_normal(rng, channel.shape[0])
    return PilotObservation(received=np.sqrt(snr) * channel + noise, snr=snr)


def _check_orthonormal(subspace: np.ndarray) -> None:
    if subspace.ndim != 2 or not 0 < subspace.shape[1] <= subspace.shape[0]:
        raise ValueError(
            f"subspace must be tall with at least one column, got shape {subspace.shape}"
        )
    gram = subspace.conj().T @ subspace
    gram.flat[:: subspace.shape[1] + 1] -= 1.0  # Gram - I, in the one r x r array
    deviation = float(np.max(np.abs(gram)))
    if deviation > GRAM_TOLERANCE:
        raise ValueError(
            f"subspace columns are not orthonormal: Gram deviation {deviation:.3e} "
            f"exceeds {GRAM_TOLERANCE:.1e}"
        )


def estimate_mmse(observation: PilotObservation, basis: EigenBasis) -> ChannelEstimate:
    """MMSE estimate sqrt(snr) R (snr R + I)^-1 y via the eigenbasis of R.

    The eigenbasis path applies U_1 diag(snr l / (snr l + 1)) U_1^H / sqrt(snr)
    over the numerical rank, costing two skinny matmuls instead of an M x M
    solve.
    """
    snr = observation.snr
    r = basis.numerical_rank
    u1 = basis.eigenvectors[:, :r]
    shrink = snr * basis.eigenvalues[:r] / (snr * basis.eigenvalues[:r] + 1.0)
    h_hat = u1 @ (shrink / np.sqrt(snr) * (u1.conj().T @ observation.received))
    return ChannelEstimate(h_hat=h_hat, estimator=Estimator.MMSE)


def estimate_ls(observation: PilotObservation) -> ChannelEstimate:
    """Least-squares estimate y / sqrt(snr); uses no channel statistics."""
    return ChannelEstimate(
        h_hat=observation.received / np.sqrt(observation.snr), estimator=Estimator.LS
    )


def _project_scaled(observation: PilotObservation, subspace: np.ndarray) -> np.ndarray:
    _check_orthonormal(subspace)
    y = observation.received
    return subspace @ (subspace.conj().T @ y) / np.sqrt(observation.snr)


def estimate_rsls(observation: PilotObservation, subspace: np.ndarray) -> ChannelEstimate:
    """Reduced-subspace LS: project the LS estimate onto the channel's eigenspace.

    `subspace` is M x r with orthonormal columns (the leading eigenvectors of
    the true correlation matrix); estimation noise outside the span is
    discarded. Idempotent: re-projecting the estimate changes nothing.
    """
    return ChannelEstimate(
        h_hat=_project_scaled(observation, subspace), estimator=Estimator.RSLS
    )


def estimate_conservative_rsls(
    observation: PilotObservation, container_subspace: np.ndarray
) -> ChannelEstimate:
    """RS-LS onto a containing subspace known without the user's own statistics.

    Same mechanics as estimate_rsls, but `container_subspace` comes from a
    model whose span provably contains the channel subspace for any user in
    the cell (e.g. the isotropic matrix of the same geometry), so one basis
    serves all users at the cost of a larger projection rank.
    """
    return ChannelEstimate(
        h_hat=_project_scaled(observation, container_subspace),
        estimator=Estimator.CONSERVATIVE_RSLS,
    )


def analytic_nmse(
    estimator: Estimator,
    basis: EigenBasis,
    snr: float,
    subspace_rank: int | None = None,
    containment_residual: float | None = None,
) -> float:
    """Closed-form NMSE of an estimator against the channel statistics in `basis`.

    MMSE uses the full spectrum: sum(l / (snr l + 1)) / tr(R). LS is
    M / (snr tr(R)). Both RS-LS variants are rank / (snr tr(R)) with `rank`
    the projection rank: `subspace_rank` if given, else the effective rank of
    `basis` for RSLS (the projection the simulator uses); for
    CONSERVATIVE_RSLS the container rank must be passed explicitly since the
    container basis is not derived from `basis`. The RS-LS expressions assume
    the channel lies inside the projection subspace; for the conservative
    variant pass the measured `containment_residual` and the oracle refuses
    to answer when that assumption fails.
    """
    _checked_snrs(snr)
    trace = basis.source_trace
    m = basis.num_antennas
    if estimator is Estimator.MMSE:
        values = basis.eigenvalues
        return float(np.sum(values / (snr * values + 1.0)) / trace)
    if estimator is Estimator.LS:
        return m / (snr * trace)
    if estimator is Estimator.RSLS:
        rank = basis.effective_rank if subspace_rank is None else subspace_rank
    elif estimator is Estimator.CONSERVATIVE_RSLS:
        if subspace_rank is None:
            raise ValueError("the conservative RS-LS oracle needs the container subspace rank")
        if containment_residual is not None and containment_residual > CONTAINMENT_TOLERANCE:
            raise OracleInvalidError(
                f"conservative RS-LS oracle invalid: containment residual "
                f"{containment_residual:.3e} exceeds {CONTAINMENT_TOLERANCE:.1e}; "
                "the channel subspace leaks outside the container basis"
            )
        rank = subspace_rank
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return _checked_rank(rank, m, "subspace") / (snr * trace)


@dataclass(frozen=True)
class MonteCarloNmse:
    """Monte Carlo NMSE for one estimator at one SNR."""

    nmse: float
    ci95: float
    trials: int


def _draw_block(
    seed: int, trials: range, rank: int, num_antennas: int
) -> tuple[np.ndarray, np.ndarray]:
    """Channel coordinates v and noise n of consecutive trials, one row each.

    Every trial draws from its own (seed, trial) generator, v before n, so a
    row depends on its trial index alone, never on the block it lands in.
    The trial's rows are complex_normal(rng, rank) and then
    complex_normal(rng, num_antennas) from that generator, the one
    definition of the draw.
    """
    v = np.empty((len(trials), rank), dtype=np.complex128)
    n = np.empty((len(trials), num_antennas), dtype=np.complex128)
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        v[row], n[row] = complex_normal(rng, rank), complex_normal(rng, num_antennas)
    return v, n


def monte_carlo_nmse(
    basis: EigenBasis,
    estimators: tuple[Estimator, ...],
    snr: float | Sequence[float],
    trials: int,
    seed: int,
    rsls_rank: int | None = None,
    container_subspace: EigenBasis | np.ndarray | None = None,
) -> dict[Estimator, MonteCarloNmse] | list[dict[Estimator, MonteCarloNmse]]:
    """Empirical NMSE of several estimators over shared channel realizations.

    `snr` is one linear-scale SNR, giving one dict, or a grid of them, giving
    one dict per SNR in grid order. Each trial draws h = U_1 diag(sqrt(l)) v
    and the noise n from its own generator seeded by (seed, trial index), so
    results are reproducible realization-by-realization and every SNR of a
    grid sees the same realizations. With more than one BLAS thread a
    trial's products round by how many rows its block has (MC_BLOCK_TRIALS,
    or the rest in the last block), so its last bits can move with
    `trials`. All estimators see the same channel and noise within a
    trial, which makes NMSE differences between estimators far less noisy
    than their absolute values.

    Trials are processed in blocks of MC_BLOCK_TRIALS. Each block is
    projected once per subspace; every SNR then costs elementwise work on the
    projected coordinates a = diag(sqrt(l)) v of h on U_1:

    * LS, RSLS and CONSERVATIVE_RSLS share one kernel: projecting onto an
      orthonormal P costs ||(I - P P^H) h||^2 + ||P^H n||^2 / snr, the two
      parts being orthogonal. LS is the case P = I, with residual 0 and
      noise energy ||n||^2. RSLS projects onto the top k columns of U_1
      itself, so its residual is the tail energy ||a[k:]||^2 of the
      coordinates, with no product (exactly 0 when k >= r). One broadcast
      writes the whole SNR grid.
    * MMSE: ||d||^2 with d = shrink / sqrt(snr) (sqrt(snr) a + U_1^H n) - a.

    A block's products, in whatever frame the bases give, come from
    spectral._block_products and serve every estimator and SNR, so a grid
    call returns exactly the numbers of separate scalar calls, and a subset
    of `estimators` exactly those of the full set.

    `rsls_rank` sets the RSLS projection rank (default: effective rank of
    `basis`), at most the columns `basis` holds: its numerical rank, for a
    basis from eigendecompose. `container_subspace` is the container P
    that CONSERVATIVE_RSLS projects onto, required when that estimator is
    requested, in one of two forms. An EigenBasis gives its numerical-rank
    columns, eigenvectors[:, :numerical_rank], orthonormal by construction
    and trusted like `basis` itself: no Gram check runs. A raw M x r array
    must have orthonormal columns, and its Gram matrix is checked once per
    call. The RSLS columns come from `basis` and are never checked.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not estimators:
        raise ValueError("at least one estimator is required")
    scalar = np.ndim(snr) == 0
    snrs = _checked_snrs(snr)

    m = basis.num_antennas
    r = basis.numerical_rank
    scale = np.sqrt(basis.eigenvalues[:r])
    held = basis.num_columns
    if Estimator.RSLS in estimators:
        rank = _checked_rank(basis.effective_rank if rsls_rank is None else rsls_rank, held, "rsls")
    # U_1^H n, read by MMSE and RSLS alone, covers the numerical rank and a
    # hand-built basis's RSLS columns past it: one width for every subset
    width = 0
    if Estimator.MMSE in estimators or Estimator.RSLS in estimators:
        width = r if rsls_rank is None else max(r, min(rsls_rank, held))
    container, container_rank = None, 0
    if Estimator.CONSERVATIVE_RSLS in estimators:
        if container_subspace is None:
            raise ValueError("CONSERVATIVE_RSLS requires a container_subspace")
        container = container_subspace
        if isinstance(container, EigenBasis):  # orthonormal by construction: no Gram check
            container_rank, length = container.numerical_rank, container.num_antennas
        else:
            _check_orthonormal(container)
            container_rank, length = container.shape[1], container.shape[0]
        if length != m:  # the frames' pieces would otherwise cut it to fit
            raise ValueError(f"container_subspace has {length} rows for {m} antennas")
    products = _block_products(basis, width, container, container_rank)

    errors = np.empty((snrs.size, len(estimators), trials))
    for start in range(0, trials, MC_BLOCK_TRIALS):
        block = range(start, min(start + MC_BLOCK_TRIALS, trials))
        a, noise = _draw_block(seed, block, r, m)
        a *= scale  # the channel's coordinates on U_1, in place
        frame_a, a_noise, container_terms = products(a, noise)  # noise is conjugated in place
        rows = slice(block.start, block.stop)
        for k, estimator in enumerate(estimators):
            if estimator is Estimator.MMSE:
                # Per SNR, in one buffer: broadcasting over the grid would
                # hold SNRs x block x r temporaries. d = shrink / sqrt_rho
                # (sqrt_rho a + U_1^H n) - a, one in-place step at a time.
                d = np.empty_like(frame_a)
                for s, rho in enumerate(snrs):
                    sqrt_rho = np.sqrt(rho)
                    shrink = rho * basis.eigenvalues[:r] / (rho * basis.eigenvalues[:r] + 1.0)
                    np.multiply(frame_a, sqrt_rho, out=d)
                    d += a_noise[:, :r]
                    d *= shrink / sqrt_rho
                    d -= frame_a
                    errors[s, k, rows] = _row_energy(d)
                continue
            if estimator is Estimator.LS:
                residual, noise_energy = 0.0, _row_energy(noise)
            elif estimator is Estimator.RSLS:  # h = U_1 a, so (I - P P^H) h = U_1[:, k:] a[k:]
                residual, noise_energy = _row_energy(a[:, rank:]), _row_energy(a_noise[:, :rank])
            elif estimator is Estimator.CONSERVATIVE_RSLS:
                residual, noise_energy = container_terms
            else:
                raise ValueError(f"unknown estimator {estimator!r}")
            errors[:, k, rows] = residual + noise_energy / snrs[:, None]

    trace = basis.source_trace
    nmse = errors.mean(axis=2) / trace
    if trials > 1:
        ci95 = 1.96 * (errors.std(axis=2, ddof=1) / np.sqrt(trials)) / trace
    else:
        ci95 = np.full_like(nmse, np.nan)
    grid = [
        {
            estimator: MonteCarloNmse(nmse=float(value), ci95=float(half_width), trials=trials)
            for estimator, value, half_width in zip(estimators, nmse_row, ci95_row)
        }
        for nmse_row, ci95_row in zip(nmse, ci95)
    ]
    return grid[0] if scalar else grid
