"""Output checks for the benchmark workloads.

Every verdict comes from the program's own invariants and closed-form
oracles, never from golden bytes: eigenvalue bytes legitimately change with
the BLAS thread count, while ranks, traces, orderings and oracle agreement
do not. Each check raises CheckFailed naming the first violation it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from holomimo import (
    Estimator,
    ExperimentConfig,
    MatrixProvenance,
    build_exact_clustered,
    load_matrix,
    save_matrix,
)
from holomimo.estimation import CONTAINMENT_TOLERANCE
from holomimo.spectral import EFFECTIVE_RANK_COMPLEMENT, RANK_TOLERANCE

# Monte Carlo vs oracle: within 4 standard errors (ci95 / 1.96) and within the
# 3% relative bound of acceptance criterion 5.
MC_SIGMAS = 4.0
MC_RELATIVE = 0.03
# Estimators from best to worst; every sweep must respect this order.
ORDERED_ESTIMATORS = (
    Estimator.MMSE,
    Estimator.RSLS,
    Estimator.CONSERVATIVE_RSLS,
    Estimator.LS,
)
TRACE_TOLERANCE = 1e-9
EXPORT_TOLERANCE = 1e-12
DIAGONAL_TOLERANCE = float(np.finfo(np.float64).eps)
_ROW_BLOCK = 512


class CheckFailed(Exception):
    """An artifact violates an invariant of the program's output contract."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def file_digest(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def check_listing(stdout: str, out_dir: Path, names: list[str]) -> list[Path]:
    """The CLI printed exactly the expected artifact paths, and they exist."""
    listed = [Path(line) for line in stdout.splitlines()]
    expected = [out_dir / name for name in names]
    _require(listed == expected, f"stdout lists {[str(p) for p in listed]}, expected {names}")
    for path in expected:
        _require(path.is_file(), f"listed artifact {path.name} does not exist")
    return expected


def _resolved(config: ExperimentConfig) -> dict:
    # The artifacts hold the resolved config after a JSON round trip.
    return json.loads(json.dumps(config.resolved))


def _read_json(path: Path, config: ExperimentConfig) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: invalid JSON: {exc}") from exc
    _require(data.get("config") == _resolved(config), f"{path.name}: embedded config differs")
    return data


def _read_csv(path: Path, config: ExperimentConfig, header: str) -> list[list[str]]:
    lines = path.read_text().split("\n")
    _require(lines[-1] == "", f"{path.name}: missing final newline")
    comment = "# config: "
    _require(lines[0].startswith(comment), f"{path.name}: missing config comment line")
    try:
        embedded = json.loads(lines[0][len(comment) :])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: invalid config comment: {exc}") from exc
    _require(embedded == _resolved(config), f"{path.name}: embedded config differs")
    _require(lines[1] == header, f"{path.name}: header {lines[1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[2:-1]]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_sweep(paths: list[Path], config: ExperimentConfig) -> None:
    """nmse-sweep: finite records that match their oracles and rank the estimators."""
    csv_path, json_path = paths
    data = _read_json(json_path, config)
    records = data["records"]
    expected_keys = [(e.value, snr) for snr in config.snr_grid_db for e in config.estimators]
    keys = [(r["estimator"], r["snr_db"]) for r in records]
    _require(keys == expected_keys, f"records are {keys}, expected {expected_keys}")

    _require(data["warnings"] == [], f"sweep warnings: {data['warnings']}")
    residual = data["containment_residual"]
    _require(
        _finite(residual) and 0.0 <= residual < CONTAINMENT_TOLERANCE,
        f"containment residual {residual!r} not below {CONTAINMENT_TOLERANCE}",
    )
    rank = data["container_rank"]
    m = config.geometry.num_antennas
    _require(isinstance(rank, int) and 1 <= rank <= m, f"container rank {rank!r}")

    by_snr: dict[float, dict[Estimator, dict]] = {}
    for rec in records:
        label = f"{rec['estimator']} at {rec['snr_db']} dB"
        values = (rec["nmse_mc"], rec["nmse_mc_ci95"], rec["nmse_analytic"])
        _require(all(_finite(v) for v in values), f"{label}: non-finite value in {values}")
        _require(rec["trials"] == config.trials, f"{label}: {rec['trials']} trials")
        mc, ci95, analytic = values
        deviation = abs(mc - analytic)
        _require(
            deviation <= MC_SIGMAS * ci95 / 1.96,
            f"{label}: |MC - analytic| = {deviation:.3e} exceeds {MC_SIGMAS} standard errors",
        )
        _require(
            deviation <= MC_RELATIVE * analytic,
            f"{label}: MC deviates {deviation / analytic:.2%} from the oracle",
        )
        # Closed forms that need no eigendecomposition: tr(R) = M * gain.
        snr = 10.0 ** (rec["snr_db"] / 10.0)
        estimator = Estimator(rec["estimator"])
        closed = {
            Estimator.LS: 1.0 / (snr * config.beta),
            Estimator.CONSERVATIVE_RSLS: rank / (snr * m * config.beta),
        }.get(estimator)
        if closed is not None:
            _require(
                math.isclose(analytic, closed, rel_tol=1e-12),
                f"{label}: oracle {analytic!r} differs from closed form {closed!r}",
            )
        by_snr.setdefault(rec["snr_db"], {})[estimator] = rec

    ordered = [e for e in ORDERED_ESTIMATORS if e in config.estimators]
    for snr_db, row in by_snr.items():
        for better, worse in zip(ordered, ordered[1:]):
            low, high = row[better], row[worse]
            # Non-strict: estimators whose projections coincide tie to rounding.
            _require(
                low["nmse_mc"] <= high["nmse_mc"] * (1.0 + 1e-9)
                and low["nmse_analytic"] <= high["nmse_analytic"] * (1.0 + 1e-12),
                f"at {snr_db} dB {better.value} does not beat {worse.value}",
            )

    rows = _read_csv(csv_path, config, "estimator,snr_db,nmse_mc,nmse_ci95,nmse_analytic,trials")
    # Every value is finite by now, so no CSV cell is left empty.
    fields = ("estimator", "snr_db", "nmse_mc", "nmse_mc_ci95", "nmse_analytic", "trials")
    mirrored = [[rec[field] for field in fields] for rec in records]
    try:
        parsed = [[r[0], *map(float, r[1:5]), int(r[5])] for r in rows]
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"{csv_path.name}: malformed row: {exc}") from exc
    _require(parsed == mirrored, f"{csv_path.name} does not mirror {json_path.name}")


def _spectrum(csv_path: Path, config: ExperimentConfig) -> np.ndarray:
    rows = _read_csv(csv_path, config, "index,eigenvalue,cum_energy_fraction")
    try:
        table = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise CheckFailed(f"{csv_path.name}: malformed row: {exc}") from exc
    m = config.geometry.num_antennas
    _require(table.shape == (m, 3), f"{csv_path.name}: table shape {table.shape}, expected M={m}")
    _require(np.array_equal(table[:, 0], np.arange(1, m + 1)), f"{csv_path.name}: bad index column")
    _require(bool(np.isfinite(table).all()), f"{csv_path.name}: non-finite entries")
    return table


def check_eigen(
    paths: list[Path], config: ExperimentConfig, isotropic_ranks: tuple[int, int] | None = None
) -> None:
    """eigen-report: spectra that are valid and agree with the summary's ranks.

    `isotropic_ranks` is the (effective, numerical) rank pair the isotropic
    spectrum must have; it depends on the geometry alone.
    """
    *csv_paths, summary_path = paths
    summary = _read_json(summary_path, config)
    m = config.geometry.num_antennas
    _require(summary["num_antennas"] == m, f"summary M = {summary['num_antennas']}, expected {m}")
    prediction = min(1.0, math.pi * config.geometry.spacing_fraction**2)
    _require(
        math.isclose(summary["rank_fraction_prediction"], prediction, rel_tol=1e-15),
        "rank fraction prediction differs from min(1, pi (spacing/lambda)^2)",
    )
    _require(sorted(summary["models"]) == sorted(config.models), "summary lists other models")

    total_expected = m * config.beta
    for model, csv_path in zip(config.models, csv_paths):
        table = _spectrum(csv_path, config)
        values, cumulative = table[:, 1], table[:, 2]
        _require(values[-1] >= 0.0, f"{model}: negative eigenvalue {values[-1]}")
        _require(bool(np.all(np.diff(values) <= 0.0)), f"{model}: spectrum not descending")
        total = float(values.sum())
        _require(
            abs(total - total_expected) <= TRACE_TOLERANCE * total_expected,
            f"{model}: eigenvalues sum to {total}, expected M * gain = {total_expected}",
        )
        running = np.cumsum(values)
        _require(
            bool(np.allclose(cumulative, running / total, rtol=0.0, atol=1e-12)),
            f"{model}: cumulative energy column inconsistent",
        )
        numerical = int(np.count_nonzero(values > RANK_TOLERANCE * values[0]))
        effective = int(np.searchsorted(running, (1.0 - EFFECTIVE_RANK_COMPLEMENT) * total)) + 1
        entry = summary["models"][model]
        _require(
            (entry["effective_rank"], entry["numerical_rank"]) == (effective, numerical),
            f"{model}: summary ranks {(entry['effective_rank'], entry['numerical_rank'])}, "
            f"spectrum gives {(effective, numerical)}",
        )
        _require(entry["effective_rank_fraction"] == effective / m, f"{model}: bad rank fraction")
        _require(entry["spectrum_csv"] == csv_path.name, f"{model}: summary names another CSV")
        _require(
            abs(entry["trace"] - total_expected) <= TRACE_TOLERANCE * total_expected,
            f"{model}: summary trace {entry['trace']}",
        )
        error = entry["self_check_error"]
        if model == "isotropic":
            _require(error is None, "isotropic model reports a quadrature self-check")
        else:
            _require(
                _finite(error) and abs(error) <= config.quadrature.density_check_tol,
                f"{model}: quadrature self-check error {error!r}",
            )

    models = summary["models"]
    if isotropic_ranks is not None:
        iso = models["isotropic"]
        _require(
            (iso["effective_rank"], iso["numerical_rank"]) == isotropic_ranks,
            f"isotropic ranks {(iso['effective_rank'], iso['numerical_rank'])}, "
            f"expected {isotropic_ranks}",
        )
    if "exact" in models and "isotropic" in models:
        _require(
            models["exact"]["effective_rank"] <= models["isotropic"]["numerical_rank"],
            "exact effective rank exceeds the isotropic numerical rank",
        )
    names = list(config.models)
    pairs = [f"{a}_vs_{b}" for i, a in enumerate(names) for b in names[i + 1 :]]
    _require(sorted(summary["cmd"]) == sorted(pairs), f"distances for {sorted(summary['cmd'])}")
    for pair, distance in summary["cmd"].items():
        _require(_finite(distance) and 0.0 <= distance <= 1.0, f"{pair}: distance {distance!r}")


def check_export(paths: list[Path], config: ExperimentConfig, scratch: Path) -> None:
    """export-matrix: a container that round-trips and matches an in-process build.

    `scratch` is a directory for the re-saved copy used by the round trip.
    """
    (container,) = paths
    m = config.geometry.num_antennas
    # Build the reference first so its temporaries are gone before loading.
    reference = build_exact_clustered(config.geometry, config.scattering, config.quadrature)
    try:
        matrix = load_matrix(container)
    except ValueError as exc:
        raise CheckFailed(f"{container.name}: {exc}") from exc
    _require(matrix.num_antennas == m, f"container M = {matrix.num_antennas}, expected {m}")
    _require(matrix.gain == config.beta, f"container gain {matrix.gain}, expected {config.beta}")
    _require(
        matrix.provenance is MatrixProvenance.EXACT_CLUSTERED,
        f"container provenance {matrix.provenance.label}, expected exact",
    )
    entries = matrix.entries
    # No entry of a PSD matrix exceeds its largest diagonal entry, the gain.
    limit = EXPORT_TOLERANCE * config.beta
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = entries[rows]
        _require(bool(np.isfinite(block).all()), "container holds non-finite entries")
        _require(
            np.array_equal(block, entries[:, rows].conj().T), "container is not exactly Hermitian"
        )
        deviation = float(np.abs(block - reference.entries[rows]).max())
        _require(
            deviation <= limit,
            f"entries deviate {deviation:.3e} from an in-process build (limit {limit:.1e})",
        )
    del reference
    # The exact Hermitian check above already makes the diagonal real. The
    # builder pins it to the gain by scaling with gain / total, and the two
    # roundings of (gain / total) * total leave it within machine epsilon of
    # the gain, relative; a larger gap is not rounding.
    diagonal_error = float(np.abs(np.diagonal(entries).real - config.beta).max())
    limit = DIAGONAL_TOLERANCE * config.beta
    _require(
        diagonal_error <= limit,
        f"diagonal is off the gain by up to {diagonal_error:.3e} (limit {limit:.1e})",
    )
    copy = scratch / f"roundtrip_{container.name}"
    try:
        save_matrix(copy, matrix)
        _require(file_digest(copy) == file_digest(container), "load/save does not round-trip")
    finally:
        copy.unlink(missing_ok=True)
