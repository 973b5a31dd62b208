"""Run orchestration: build matrices per config and write CSV/JSON artifacts.

Output contract shared by all runs:

* Every artifact embeds the resolved configuration (CSV as a leading comment
  line, JSON under a "config" key), so a file is self-describing.
* Outputs are byte-deterministic: fixed row order, "%.17g" floats in CSV,
  explicit "\\n" newlines, sorted JSON keys, no timestamps or machine info.
* The --threads knob is validated (at least 1) and otherwise ignored: it
  changes neither the bytes nor the speed. Parallelism comes from BLAS.
* nmse-sweep calls the Monte Carlo engine once for the whole SNR grid, so
  every SNR point is computed from the same channel and noise realizations.
* A failing run removes whatever partial files it had written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

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


def _fmt(value: float | None) -> str:
    return "" if value is None else "%.17g" % value


def _config_comment(config: ExperimentConfig) -> str:
    return "# config: " + json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _OutputSet:
    """Tracks files written by a run; an exception leaving its block removes them."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        return p

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
    prediction, and pairwise correlation matrix distances. Returns (summary,
    written paths).
    """
    with _OutputSet(out_dir) as outputs:
        matrices: dict[str, CorrelationMatrix] = {}
        bases: dict[str, EigenBasis] = {}
        summary_models: dict[str, dict] = {}
        for model in config.models:
            matrix = _build_model(config, model)
            basis = eigendecompose(matrix)
            matrices[model] = matrix
            bases[model] = basis

            csv_path = outputs.path(f"{config.output_stem}_spectrum_{model}.csv")
            total = float(basis.eigenvalues.sum())
            cumulative = np.cumsum(basis.eigenvalues) / total
            lines = [_config_comment(config), "index,eigenvalue,cum_energy_fraction"]
            for k in range(basis.num_antennas):
                lines.append(
                    f"{k + 1},{_fmt(float(basis.eigenvalues[k]))},{_fmt(float(cumulative[k]))}"
                )
            csv_path.write_text("\n".join(lines) + "\n")

            summary_models[model] = {
                "effective_rank": basis.effective_rank,
                "numerical_rank": basis.numerical_rank,
                "effective_rank_fraction": basis.effective_rank / basis.num_antennas,
                "trace": basis.source_trace,
                "self_check_error": matrix.self_check_error,
                "spectrum_csv": csv_path.name,
            }

        distances = {}
        names = list(config.models)
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                distances[f"{first}_vs_{second}"] = correlation_matrix_distance(
                    matrices[first], matrices[second]
                )

        summary = {
            "num_antennas": config.geometry.num_antennas,
            "rank_fraction_prediction": rank_fraction_prediction(config.geometry),
            "models": summary_models,
            "cmd": distances,
            "config": config.resolved,
        }
        json_path = outputs.path(f"{config.output_stem}_eigen_summary.json")
        _write_json(json_path, summary)
        return summary, outputs.paths


def _sweep_truth_model(config: ExperimentConfig) -> str:
    if config.scattering_model == "isotropic":
        return "isotropic"
    return config.correlation_model


def run_nmse_sweep(
    config: ExperimentConfig, out_dir: str | Path
) -> tuple[list[NmseRecord], list[Path]]:
    """Monte Carlo + analytic NMSE of the configured estimators over the SNR grid.

    The channel statistics come from the configured truth model (isotropic,
    or the chosen clustered builder). The conservative iso-RS-LS estimator
    projects onto the numerical-rank eigenspace of the isotropic matrix of
    the same geometry; its analytic oracle is reported only while the truth
    eigenspace is contained in that projection within tolerance, otherwise
    the analytic column is left empty and a warning lands in the JSON. One
    Monte Carlo call covers the whole SNR grid.

    Writes <stem>_nmse.csv and <stem>_nmse.json; returns (records, paths).
    """
    with _OutputSet(out_dir) as outputs:
        truth_model = _sweep_truth_model(config)
        truth = _build_model(config, truth_model)
        basis = eigendecompose(truth)

        warnings: list[str] = []
        container = None
        container_rank = None
        containment = None
        if Estimator.CONSERVATIVE_RSLS in config.estimators:
            iso_basis = eigendecompose(build_isotropic(config.geometry, config.beta))
            container_rank = iso_basis.numerical_rank
            container = iso_basis.eigenvectors[:, :container_rank]
            containment = subspace_containment_residual(iso_basis, basis)

        snrs = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_grid_db]
        mc_grid = monte_carlo_nmse(
            basis,
            config.estimators,
            snr=snrs,
            trials=config.trials,
            seed=config.seed,
            container_subspace=container,
        )
        records: list[NmseRecord] = []
        iso_warned = False
        for snr_db, snr, mc in zip(config.snr_grid_db, snrs, mc_grid):
            for estimator in config.estimators:
                if estimator is Estimator.CONSERVATIVE_RSLS:
                    try:
                        analytic = analytic_nmse(
                            estimator,
                            basis,
                            snr,
                            subspace_rank=container_rank,
                            containment_residual=containment,
                        )
                    except OracleInvalidError as exc:
                        analytic = None
                        if not iso_warned:
                            warnings.append(str(exc))
                            iso_warned = True
                else:
                    analytic = analytic_nmse(estimator, basis, snr)
                point = mc[estimator]
                ci = point.ci95 if math.isfinite(point.ci95) else None
                records.append(
                    NmseRecord(
                        estimator=estimator,
                        snr_db=snr_db,
                        nmse_mc=point.nmse,
                        nmse_mc_ci95=ci,
                        nmse_analytic=analytic,
                        trials=config.trials,
                    )
                )

        csv_path = outputs.path(f"{config.output_stem}_nmse.csv")
        lines = [_config_comment(config), "estimator,snr_db,nmse_mc,nmse_ci95,nmse_analytic,trials"]
        for rec in records:
            lines.append(
                ",".join(
                    (
                        rec.estimator.value,
                        _fmt(rec.snr_db),
                        _fmt(rec.nmse_mc),
                        _fmt(rec.nmse_mc_ci95),
                        _fmt(rec.nmse_analytic),
                        str(rec.trials),
                    )
                )
            )
        csv_path.write_text("\n".join(lines) + "\n")

        payload = {
            "truth_model": truth_model,
            "containment_residual": containment,
            "container_rank": container_rank,
            "records": [
                {
                    "estimator": rec.estimator.value,
                    "snr_db": rec.snr_db,
                    "nmse_mc": rec.nmse_mc,
                    "nmse_mc_ci95": rec.nmse_mc_ci95,
                    "nmse_analytic": rec.nmse_analytic,
                    "trials": rec.trials,
                }
                for rec in records
            ],
            "warnings": warnings,
            "config": config.resolved,
        }
        json_path = outputs.path(f"{config.output_stem}_nmse.json")
        _write_json(json_path, payload)
        return records, outputs.paths


def run_approx_validation(config: ExperimentConfig, out_dir: str | Path) -> tuple[dict, list[Path]]:
    """Compare the closed-form clustered matrix against the quadrature one.

    Reports the correlation matrix distance, the largest entrywise deviation,
    the largest eigenvalue deviation (relative to the exact spectral norm),
    rank metrics for both, and the per-cluster quadrature self-check.
    Requires clustered scattering. Returns (report, written paths).
    """
    if config.scattering is None:
        raise ConfigurationError("approx validation requires clustered scattering")
    with _OutputSet(out_dir) as outputs:
        exact = build_exact_clustered(config.geometry, config.scattering, config.quadrature)
        approx = build_approx_clustered(config.geometry, config.scattering)
        self_check = quadrature_self_check(config.scattering, config.quadrature)
        exact_basis = eigendecompose(exact)
        approx_basis = eigendecompose(approx)
        eig_dev = float(
            np.max(np.abs(exact_basis.eigenvalues - approx_basis.eigenvalues))
            / exact_basis.eigenvalues[0]
        )
        report = {
            "cmd": correlation_matrix_distance(exact, approx),
            "max_entry_deviation": float(np.max(np.abs(exact.entries - approx.entries))),
            "max_eigenvalue_deviation_rel": eig_dev,
            "effective_rank_exact": exact_basis.effective_rank,
            "effective_rank_approx": approx_basis.effective_rank,
            "quadrature_self_check": {
                "per_cluster_relative_error": [float(e) for e in self_check],
                "worst_relative_error": float(self_check[np.argmax(np.abs(self_check))]),
                "tolerance": config.quadrature.density_check_tol,
                "status": "pass",
            },
            "config": config.resolved,
        }
        json_path = outputs.path(f"{config.output_stem}_approx_validation.json")
        _write_json(json_path, report)
        return report, outputs.paths


def run_export_matrix(
    config: ExperimentConfig, out_dir: str | Path, write_csv: bool = False
) -> tuple[dict, list[Path]]:
    """Build the configured truth matrix and write it to the binary container.

    Optionally also writes the lossy-by-omission CSV view. Returns a small
    manifest and the written paths.
    """
    with _OutputSet(out_dir) as outputs:
        which = _sweep_truth_model(config)
        matrix = _build_model(config, which)
        container_path = outputs.path(f"{config.output_stem}_{matrix.provenance.label}.hmrc")
        save_matrix(container_path, matrix)
        manifest = {
            "model": which,
            "num_antennas": matrix.num_antennas,
            "gain": matrix.gain,
            "container": container_path.name,
            "self_check_error": matrix.self_check_error,
        }
        if write_csv:
            csv_path = outputs.path(f"{config.output_stem}_{matrix.provenance.label}.csv")
            export_matrix_csv(csv_path, matrix)
            manifest["csv"] = csv_path.name
        return manifest, outputs.paths
