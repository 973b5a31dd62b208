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
from .spectral import EigenBasis

GRAM_TOLERANCE = 1e-8
CONTAINMENT_TOLERANCE = 1e-5
# Trials per Monte Carlo block; fixed so that results never depend on threads.
MC_BLOCK_TRIALS = 128


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
        if not self.snr > 0:
            raise ValueError(f"snr must be positive (linear scale), got {self.snr}")


@dataclass(frozen=True)
class ChannelEstimate:
    """An estimate of the channel vector, tagged with the estimator that made it."""

    h_hat: np.ndarray
    estimator: Estimator


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric CN(0, 1) samples: unit total variance, split re/im."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


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
    if not snr > 0:
        raise ValueError(f"snr must be positive (linear scale), got {snr}")
    noise = complex_normal(rng, channel.shape[0])
    return PilotObservation(received=np.sqrt(snr) * channel + noise, snr=snr)


def _check_orthonormal(subspace: np.ndarray) -> None:
    if subspace.ndim != 2 or subspace.shape[0] < subspace.shape[1]:
        raise ValueError(f"subspace must be tall, got shape {subspace.shape}")
    gram = subspace.conj().T @ subspace
    deviation = float(np.max(np.abs(gram - np.eye(subspace.shape[1]))))
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
    if not snr > 0:
        raise ValueError(f"snr must be positive (linear scale), got {snr}")
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
    if not 1 <= rank <= m:
        raise ValueError(f"subspace rank {rank} outside [1, {m}]")
    return rank / (snr * trace)


@dataclass(frozen=True)
class MonteCarloNmse:
    """Monte Carlo NMSE for one estimator at one SNR."""

    nmse: float
    ci95: float
    trials: int


def _row_energy(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of a complex block."""
    return (rows.real**2 + rows.imag**2).sum(axis=1)


def _projection(subspace: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conj(P) for the noise GEMM, and (I - P P^H) U_1 for the channel.

    (I - P P^H) U_1 is the part of the channel basis that projecting onto
    the orthonormal P drops.
    """
    _check_orthonormal(subspace)
    return subspace.conj(), u1 - subspace @ (subspace.conj().T @ u1)


def _draw_block(
    seed: int, trials: range, rank: int, num_antennas: int
) -> tuple[np.ndarray, np.ndarray]:
    """Channel coordinates v and noise n of consecutive trials, one row each.

    Every trial draws from its own (seed, trial) generator, v before n, so a
    row depends on its trial index alone, never on the block it lands in.
    """
    v = np.empty((len(trials), rank), dtype=np.complex128)
    n = np.empty((len(trials), num_antennas), dtype=np.complex128)
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        v[row] = complex_normal(rng, rank)
        n[row] = complex_normal(rng, num_antennas)
    return v, n


def monte_carlo_nmse(
    basis: EigenBasis,
    estimators: tuple[Estimator, ...],
    snr: float | Sequence[float],
    trials: int,
    seed: int,
    rsls_rank: int | None = None,
    container_subspace: np.ndarray | None = None,
    threads: int = 1,
) -> dict[Estimator, MonteCarloNmse] | list[dict[Estimator, MonteCarloNmse]]:
    """Empirical NMSE of several estimators over shared channel realizations.

    `snr` is one linear-scale SNR, giving one dict, or a grid of them, giving
    one dict per SNR in grid order. Each trial draws h = U_1 diag(sqrt(l)) v
    and the noise n from its own generator seeded by (seed, trial index), so
    results are reproducible realization-by-realization and every SNR of a
    grid sees the same realizations. All estimators see the same channel and
    noise within a trial, which makes NMSE differences between estimators far
    less noisy than their absolute values.

    Trials are processed in blocks of MC_BLOCK_TRIALS. Each block is
    projected once per subspace; every SNR then costs elementwise work on the
    projected coordinates:

    * LS: ||n||^2 / snr.
    * RS-LS onto an orthonormal P (RSLS and CONSERVATIVE_RSLS):
      ||(I - P P^H) h||^2 + ||P^H n||^2 / snr; the two parts are orthogonal.
    * MMSE: ||d||^2 with d = shrink / sqrt(snr) (sqrt(snr) a + U_1^H n) - a in
      the coordinates a = diag(sqrt(l)) v of h on U_1.

    A grid call therefore returns exactly the numbers of separate scalar
    calls, and a subset of `estimators` exactly those of the full set.

    `rsls_rank` sets the RSLS projection rank (default: effective rank of
    `basis`); `container_subspace` is the orthonormal M x r basis used by
    CONSERVATIVE_RSLS and is required when that estimator is requested.
    `threads` must be at least 1 and changes nothing: the block size is
    fixed, and BLAS parallelizes the projections.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not estimators:
        raise ValueError("at least one estimator is required")
    scalar = np.ndim(snr) == 0
    snrs = np.atleast_1d(np.asarray(snr, dtype=float))
    if snrs.ndim != 1 or snrs.size == 0 or not np.all(snrs > 0):
        raise ValueError(f"snr must be positive (linear scale), got {snr}")

    m = basis.num_antennas
    r = basis.numerical_rank
    u1 = basis.eigenvectors[:, :r]
    scale = np.sqrt(basis.eigenvalues[:r])
    projections: dict[Estimator, tuple[np.ndarray, np.ndarray]] = {}
    if Estimator.RSLS in estimators:
        rank = basis.effective_rank if rsls_rank is None else rsls_rank
        if not 1 <= rank <= m:
            raise ValueError(f"rsls rank {rank} outside [1, {m}]")
        projections[Estimator.RSLS] = _projection(basis.eigenvectors[:, :rank], u1)
    if Estimator.CONSERVATIVE_RSLS in estimators:
        if container_subspace is None:
            raise ValueError("CONSERVATIVE_RSLS requires a container_subspace")
        projections[Estimator.CONSERVATIVE_RSLS] = _projection(container_subspace, u1)

    errors = np.empty((snrs.size, len(estimators), trials))
    for start in range(0, trials, MC_BLOCK_TRIALS):
        block = range(start, min(start + MC_BLOCK_TRIALS, trials))
        v, noise = _draw_block(seed, block, r, m)
        a = scale * v
        rows = slice(block.start, block.stop)
        for k, estimator in enumerate(estimators):
            if estimator is Estimator.LS:
                noise_energy = _row_energy(noise)
                for s, rho in enumerate(snrs):
                    errors[s, k, rows] = noise_energy / rho
            elif estimator is Estimator.MMSE:
                a_noise = noise @ u1.conj()
                for s, rho in enumerate(snrs):
                    sqrt_rho = np.sqrt(rho)
                    shrink = rho * basis.eigenvalues[:r] / (rho * basis.eigenvalues[:r] + 1.0)
                    d = shrink / sqrt_rho * (sqrt_rho * a + a_noise) - a
                    errors[s, k, rows] = _row_energy(d)
            elif estimator in projections:
                subspace_conj, dropped = projections[estimator]
                residual = _row_energy(a @ dropped.T)
                noise_energy = _row_energy(noise @ subspace_conj)
                for s, rho in enumerate(snrs):
                    errors[s, k, rows] = residual + noise_energy / rho
            else:
                raise ValueError(f"unknown estimator {estimator!r}")

    trace = basis.source_trace
    grid: list[dict[Estimator, MonteCarloNmse]] = []
    for per_snr in errors:
        results: dict[Estimator, MonteCarloNmse] = {}
        for estimator, column in zip(estimators, per_snr):
            mean = float(column.mean())
            if trials > 1:
                spread = float(column.std(ddof=1)) / np.sqrt(trials)
            else:
                spread = float("nan")
            results[estimator] = MonteCarloNmse(
                nmse=mean / trace, ci95=1.96 * spread / trace, trials=trials
            )
        grid.append(results)
    return grid[0] if scalar else grid
