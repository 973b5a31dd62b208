"""Run orchestration: build matrices per config and write CSV/JSON artifacts.

Output contract shared by all runs, kept by one writer (_OutputSet):

* Every file is named <stem>_<suffix>, the stem coming from the config.
* Every CSV and JSON report embeds the resolved configuration (CSV as a
  leading comment line, JSON under a "config" key), so it is
  self-describing. The matrix files of export-matrix (the binary container
  and its CSV view) carry the matrix alone.
* Outputs are byte-deterministic: fixed row order, "%.17g" floats in CSV,
  explicit "\\n" newlines, sorted JSON keys, no timestamps or machine info.
* nmse-sweep calls the Monte Carlo engine once for the whole SNR grid, so
  every SNR point is computed from the same channel and noise realizations.
* A failing run removes whatever partial files it had written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ExperimentConfig
from .correlation import (
    CorrelationMatrix,
    build_approx_clustered,
    build_exact_clustered,
    build_isotropic,
    correlation_matrix_distance,
    export_matrix_csv,
    quadrature_self_check,
    save_matrix,
)
from .errors import ConfigurationError, OracleInvalidError
from .estimation import Estimator, analytic_nmse, monte_carlo_nmse
from .spectral import (
    EigenBasis,
    eigendecompose,
    rank_fraction_prediction,
    subspace_containment_residual,
)


@dataclass(frozen=True)
class NmseRecord:
    """One (estimator, SNR) point of a sweep; analytic value may be absent."""

    estimator: Estimator
    snr_db: float
    nmse_mc: float
    nmse_mc_ci95: float | None
    nmse_analytic: float | None
    trials: int


_NMSE_KEYS = tuple(field.name for field in fields(NmseRecord))


def _cell(value: object) -> str:
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


class _OutputSet:
    """The run's artifact writer.

    Names every file <stem>_<suffix> in the output directory and writes the
    contract's CSV and JSON layouts; an exception leaving its block removes
    every file it named.
    """

    def __init__(self, config: ExperimentConfig, out_dir: str | Path):
        self.config = config
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def path(self, suffix: str) -> Path:
        p = self.out_dir / f"{self.config.output_stem}_{suffix}"
        self.paths.append(p)
        return p

    def write_csv(self, suffix: str, header: str, rows: Iterable[tuple]) -> Path:
        """Config comment line, header, then one line per row, cell by cell."""
        config = json.dumps(self.config.resolved, sort_keys=True, separators=(",", ":"))
        lines = ["# config: " + config, header]
        lines.extend(",".join(map(_cell, row)) for row in rows)
        path = self.path(suffix)
        path.write_text("\n".join(lines) + "\n")
        return path

    def write_json(self, suffix: str, payload: dict) -> dict:
        """Write `payload` plus the resolved config; return what was written."""
        payload = {**payload, "config": self.config.resolved}
        self.path(suffix).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload

    def __enter__(self) -> _OutputSet:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for p in self.paths:
                p.unlink(missing_ok=True)


def _build_model(config: ExperimentConfig, which: str) -> CorrelationMatrix:
    if which == "isotropic":
        return build_isotropic(config.geometry, config.beta)
    if config.scattering is None:
        raise ConfigurationError(f"model '{which}' requires clustered scattering")
    if which == "exact":
        return build_exact_clustered(config.geometry, config.scattering, config.quadrature)
    if which == "approx":
        return build_approx_clustered(config.geometry, config.scattering)
    raise ConfigurationError(f"unknown correlation model '{which}'")


def run_eigen_report(config: ExperimentConfig, out_dir: str | Path) -> tuple[dict, list[Path]]:
    """Eigenvalue spectra and rank metrics for every configured model.

    Writes one spectrum CSV per model (index, eigenvalue, cumulative energy
    fraction) and a summary JSON with ranks, the asymptotic rank-fraction
    prediction, and pairwise correlation matrix distances. Only eigenvalues
    are computed, never eigenvectors. Returns (summary, written paths).
    """
    with _OutputSet(config, out_dir) as outputs:
        matrices: dict[str, CorrelationMatrix] = {}
        summary_models: dict[str, dict] = {}
        for model in config.models:
            matrix = _build_model(config, model)
            # spectrum(), called by this name so that wrapping `eigendecompose` (as
            # perfbench/tracer.py does) times every eigensolve of every command.
            spec = eigendecompose(matrix, vectors=False)
            matrices[model] = matrix

            cumulative = np.cumsum(spec.eigenvalues) / float(spec.eigenvalues.sum())
            indices = range(1, spec.num_antennas + 1)
            csv_path = outputs.write_csv(
                f"spectrum_{model}.csv",
                "index,eigenvalue,cum_energy_fraction",
                zip(indices, spec.eigenvalues.tolist(), cumulative.tolist()),
            )
            summary_models[model] = {
                "effective_rank": spec.effective_rank,
                "numerical_rank": spec.numerical_rank,
                "effective_rank_fraction": spec.effective_rank / spec.num_antennas,
                "trace": spec.source_trace,
                "self_check_error": matrix.self_check_error,
                "spectrum_csv": csv_path.name,
            }

        distances = {
            f"{first}_vs_{second}": correlation_matrix_distance(matrices[first], matrices[second])
            for first, second in combinations(config.models, 2)
        }

        summary = outputs.write_json(
            "eigen_summary.json",
            {
                "num_antennas": config.geometry.num_antennas,
                "rank_fraction_prediction": rank_fraction_prediction(config.geometry),
                "models": summary_models,
                "cmd": distances,
            },
        )
        return summary, outputs.paths


def _isotropic_basis(config: ExperimentConfig, truth_model: str, truth: EigenBasis) -> EigenBasis:
    """The container eigenbasis; with isotropic truth it is the truth basis itself."""
    if truth_model == "isotropic":
        return truth
    return eigendecompose(build_isotropic(config.geometry, config.beta))


def run_nmse_sweep(
    config: ExperimentConfig, out_dir: str | Path
) -> tuple[list[NmseRecord], list[Path]]:
    """Monte Carlo + analytic NMSE of the configured estimators over the SNR grid.

    The channel statistics come from the truth model that
    `config.correlation_model` names (isotropic, or the chosen clustered
    builder). The conservative iso-RS-LS estimator projects onto the
    numerical-rank eigenspace of the isotropic matrix of the same geometry;
    its analytic oracle is reported only while the truth eigenspace is
    contained in that projection within tolerance, otherwise the analytic
    column is left empty and a warning lands in the JSON. With
    isotropic truth, the truth eigenbasis is that container, so no matrix is
    decomposed twice. One Monte Carlo call covers the whole SNR grid; it
    gets the container as that EigenBasis, orthonormal by construction, so
    no Gram check runs on it.

    Writes <stem>_nmse.csv and <stem>_nmse.json; returns (records, paths).
    """
    with _OutputSet(config, out_dir) as outputs:
        truth_model = config.correlation_model
        basis = eigendecompose(_build_model(config, truth_model))

        warnings: list[str] = []
        iso_basis = containment = None
        if Estimator.CONSERVATIVE_RSLS in config.estimators:
            iso_basis = _isotropic_basis(config, truth_model, basis)
            containment = subspace_containment_residual(iso_basis, basis)

        snrs = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
        mc_grid = monte_carlo_nmse(
            basis,
            config.estimators,
            snr=snrs,
            trials=config.trials,
            seed=config.seed,
            container_subspace=iso_basis,
        )
        records: list[NmseRecord] = []
        rows: list[tuple] = []  # one per record, the estimator by its value
        for snr_db, snr, mc in zip(config.snr_grid_db, snrs, mc_grid):
            for estimator in config.estimators:
                conservative = estimator is Estimator.CONSERVATIVE_RSLS
                try:
                    analytic = analytic_nmse(
                        estimator,
                        basis,
                        snr,
                        subspace_rank=iso_basis.numerical_rank if conservative else None,
                        containment_residual=containment,
                    )
                except OracleInvalidError as exc:
                    analytic = None
                    if not warnings:
                        warnings.append(str(exc))
                point = mc[estimator]
                ci = point.ci95 if math.isfinite(point.ci95) else None
                rows.append((estimator.value, snr_db, point.nmse, ci, analytic, config.trials))
                records.append(NmseRecord(estimator, *rows[-1][1:]))

        header = "estimator,snr_db,nmse_mc,nmse_ci95,nmse_analytic,trials"
        outputs.write_csv("nmse.csv", header, rows)
        outputs.write_json(
            "nmse.json",
            {
                "truth_model": truth_model,
                "containment_residual": containment,
                "container_rank": None if iso_basis is None else iso_basis.numerical_rank,
                "records": [dict(zip(_NMSE_KEYS, row)) for row in rows],
                "warnings": warnings,
            },
        )
        return records, outputs.paths


def run_approx_validation(config: ExperimentConfig, out_dir: str | Path) -> tuple[dict, list[Path]]:
    """Compare the closed-form clustered matrix against the quadrature one.

    Reports the correlation matrix distance, the largest entrywise deviation,
    the largest eigenvalue deviation (relative to the exact spectral norm),
    rank metrics for both, and the per-cluster quadrature self-check.
    Requires clustered scattering. Returns (report, written paths).

    Both matrices come from builders of one geometry, and every offset of
    their full tables occurs in the matrix, so the entrywise deviation is
    taken over the two O(M) tables; like the distance and the spectra, it
    forms no M x M complex array.
    """
    with _OutputSet(config, out_dir) as outputs:
        exact = _build_model(config, "exact")
        approx = _build_model(config, "approx")
        self_check = quadrature_self_check(config.scattering, config.quadrature)
        exact_spec = eigendecompose(exact, vectors=False)
        approx_spec = eigendecompose(approx, vectors=False)
        eig_dev = float(
            np.max(np.abs(exact_spec.eigenvalues - approx_spec.eigenvalues))
            / exact_spec.eigenvalues[0]
        )
        report = outputs.write_json(
            "approx_validation.json",
            {
                "cmd": correlation_matrix_distance(exact, approx),
                "max_entry_deviation": float(np.max(np.abs(exact._offsets - approx._offsets))),
                "max_eigenvalue_deviation_rel": eig_dev,
                "effective_rank_exact": exact_spec.effective_rank,
                "effective_rank_approx": approx_spec.effective_rank,
                "quadrature_self_check": {
                    "per_cluster_relative_error": [float(e) for e in self_check],
                    "worst_relative_error": float(self_check[np.argmax(np.abs(self_check))]),
                    "tolerance": config.quadrature.density_check_tol,
                    "status": "pass",
                },
            },
        )
        return report, outputs.paths


def run_export_matrix(
    config: ExperimentConfig, out_dir: str | Path, write_csv: bool = False
) -> tuple[dict, list[Path]]:
    """Build the configured truth matrix and write it to the binary container.

    Optionally also writes the lossy-by-omission CSV view. Returns a small
    manifest and the written paths.
    """
    with _OutputSet(config, out_dir) as outputs:
        matrix = _build_model(config, config.correlation_model)
        container_path = outputs.path(f"{matrix.provenance.label}.hmrc")
        save_matrix(container_path, matrix)
        manifest = {
            "model": config.correlation_model,
            "num_antennas": matrix.num_antennas,
            "gain": matrix.gain,
            "container": container_path.name,
            "self_check_error": matrix.self_check_error,
        }
        if write_csv:
            csv_path = outputs.path(f"{matrix.provenance.label}.csv")
            export_matrix_csv(csv_path, matrix)
            manifest["csv"] = csv_path.name
        return manifest, outputs.paths
