"""JSON run configuration: strict parsing, validation, and canonical resolution.

A config file fully determines a run. Angles are authored in degrees and
converted to radians at the boundary; antenna spacing is authored as a
fraction of the wavelength (`spacing_over_lambda`, the only physically
meaningful combination) or as explicit meters. Parsing is strict: unknown
keys are rejected so typos fail loudly instead of silently running defaults.

Each value is checked once. This module checks JSON types (objects, lists,
integers, finite numbers, booleans) and the rules that no single domain type
owns: the two spacing forms, clusters versus generate, what isotropic
scattering excludes, beta, the SNR grid, trials, seeds and the output stem.
Value ranges are checked by the constructor of the type built from them
(ArrayGeometry, Cluster, ScatteringConfig, QuadratureSpec, generate_clusters);
`_section` turns the ValueError it raises into a ConfigurationError naming
the config section.

The parse also writes the run's record, the `resolved` dictionary: every
setting after defaults, as the parsed value the run is built from. A
`generate` block is drawn first and its clusters are recorded as cluster
entries, angles in degrees; they then go through the same cluster parser as
authored ones, so the run uses exactly the recorded values. Every CSV and
JSON report embeds the record, and loading it back gives the same run.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .correlation import QuadratureSpec
from .errors import ConfigurationError
from .estimation import Estimator
from .geometry import ArrayGeometry
from .scattering import Cluster, ScatteringConfig, generate_clusters

_SCATTERING_MODELS = ("isotropic", "clustered")
_CORRELATION_MODELS = ("exact", "approx")
_REPORT_MODELS = ("isotropic", "exact", "approx")
_ESTIMATOR_NAMES = tuple(e.value for e in Estimator)
_DEFAULT_SNR_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
# Within +-300 dB every sweep output is finite; far beyond it the linear SNR
# 10**(dB/10) overflows float64 or underflows to 0.
_MAX_ABS_SNR_DB = 300.0
_TOP_LEVEL_KEYS = {
    "geometry",
    "beta",
    "scattering",
    "directivity",
    "correlation_model",
    "models",
    "snr_grid_db",
    "trials",
    "seed",
    "estimators",
    "quadrature",
    "output_stem",
}
_CLUSTERED_KEYS = {"model", "sigma_azimuth_deg", "sigma_elevation_deg", "clusters", "generate"}
_CLUSTER_NUMBERS = ("azimuth_deg", "elevation_deg", "power")


def _require(
    mapping: dict, key: str, context: str, convert: Callable[[Any, str], Any] | None = None
) -> Any:
    """The value under `key`, passed through `convert(value, "<context>.<key>")` if given."""
    if key not in mapping:
        raise ConfigurationError(f"{context}: missing required key '{key}'")
    value = mapping[key]
    return value if convert is None else convert(value, f"{context}.{key}")


def _object(raw: Any, allowed: set[str], context: str) -> dict:
    """A JSON object whose keys all lie in `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context}: expected an object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigurationError(
            f"{context}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return raw


def _integer(value: Any, context: str, minimum: int | None = None) -> int:
    """A JSON integer (not a boolean), at least `minimum` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{context}: expected an integer >= {minimum}, got {value!r}")
    return value


def _number(value: Any, context: str) -> float:
    """A finite JSON number (not a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{context}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigurationError(f"{context}: integer too large for a float") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{context}: value must be finite, got {value!r}")
    return value


def _choices(raw: Any, choices: tuple[str, ...], context: str) -> tuple[str, ...]:
    """A non-empty JSON list of distinct entries drawn from `choices`."""
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(f"{context}: expected a non-empty list")
    for k, entry in enumerate(raw):
        if entry not in choices:
            raise ConfigurationError(f"{context}: expected entries from {choices}, got {entry!r}")
        if entry in raw[:k]:
            raise ConfigurationError(f"{context}: duplicate entry {entry!r}")
    return tuple(raw)


@contextmanager
def _section(context: str) -> Iterator[None]:
    """Around a domain constructor: the ValueError it raises for a value out of
    range becomes a ConfigurationError naming the config section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigurationError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run settings plus `resolved`, the record they were built from.

    Loading `resolved` as a config file gives the same settings and the same
    record. `correlation_model` names the truth model of sweeps and exports:
    the configured builder for clustered scattering, "isotropic" otherwise
    (the record keeps the key for clustered scenes only).
    """

    geometry: ArrayGeometry
    scattering_model: str
    scattering: ScatteringConfig | None
    beta: float
    correlation_model: str
    models: tuple[str, ...]
    snr_grid_db: tuple[float, ...]
    trials: int
    seed: int
    estimators: tuple[Estimator, ...]
    quadrature: QuadratureSpec
    output_stem: str
    resolved: dict


def _parse_geometry(raw: Any) -> ArrayGeometry:
    context = "geometry"
    raw = _object(raw, {"m_h", "m_v", "spacing_over_lambda", "spacing_m", "wavelength_m"}, context)
    m_h = _require(raw, "m_h", context, _integer)
    m_v = _require(raw, "m_v", context, _integer)
    if "spacing_over_lambda" in raw:
        if "spacing_m" in raw or "wavelength_m" in raw:
            raise ConfigurationError(
                f"{context}: give either spacing_over_lambda or spacing_m+wavelength_m, not both"
            )
        spacing = _number(raw["spacing_over_lambda"], f"{context}.spacing_over_lambda")
        wavelength = 1.0
    else:
        spacing = _require(raw, "spacing_m", context, _number)
        wavelength = _require(raw, "wavelength_m", context, _number)
    with _section(context):
        return ArrayGeometry(
            num_horizontal=m_h, num_vertical=m_v, spacing=spacing, wavelength=wavelength
        )


def _parse_cluster(raw: Any, context: str) -> tuple[Cluster, dict]:
    """The cluster and its record: the parsed values, `specular` filled in."""
    raw = _object(raw, {*_CLUSTER_NUMBERS, "specular"}, context)
    record = {key: _require(raw, key, context, _number) for key in _CLUSTER_NUMBERS}
    record["specular"] = raw.get("specular", False)
    if not isinstance(record["specular"], bool):
        raise ConfigurationError(f"{context}.specular: expected a boolean")
    with _section(context):
        angles = (math.radians(record[key]) for key in ("azimuth_deg", "elevation_deg"))
        return Cluster(*angles, record["power"], record["specular"]), record


def _parse_generate(raw: Any, context: str) -> list[dict]:
    """The drawn clusters as cluster entries: angles in degrees, powers as drawn."""
    raw = _object(
        raw,
        {"count", "power_decay", "azimuth_range_deg", "elevation_range_deg", "seed"},
        context,
    )
    count = _require(raw, "count", context, _integer)
    decay = _require(raw, "power_decay", context, _number)
    ranges = []
    for key in ("azimuth_range_deg", "elevation_range_deg"):
        pair = _require(raw, key, context)
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigurationError(f"{context}.{key}: expected [low, high]")
        lo = _number(pair[0], f"{context}.{key}[0]")
        hi = _number(pair[1], f"{context}.{key}[1]")
        ranges.append((math.radians(lo), math.radians(hi)))
    seed = _integer(raw.get("seed", 0), f"{context}.seed", minimum=0)
    with _section(context):
        drawn = generate_clusters(count, decay, *ranges, rng=np.random.default_rng(seed))
    return [
        dict(zip(_CLUSTER_NUMBERS, (math.degrees(c.azimuth), math.degrees(c.elevation), c.power)))
        for c in drawn
    ]


def _parse_scattering(
    raw: Any, beta: float, directivity: tuple[float, float]
) -> tuple[ScatteringConfig | None, dict]:
    """The scattering model (None for isotropic) and its record.

    Explicit and generated clusters alike go through `_parse_cluster`, so
    the record holds exactly the values the model is built from.
    """
    context = "scattering"
    model = _require(_object(raw, _CLUSTERED_KEYS, context), "model", context)
    if model not in _SCATTERING_MODELS:
        raise ConfigurationError(
            f"{context}.model: expected one of {_SCATTERING_MODELS}, got {model!r}"
        )
    if model == "isotropic":
        _object(raw, {"model"}, context)
        return None, {"model": model}

    sigma_az = _require(raw, "sigma_azimuth_deg", context, _number)
    sigma_el = _require(raw, "sigma_elevation_deg", context, _number)
    if ("clusters" in raw) == ("generate" in raw):
        raise ConfigurationError(f"{context}: give exactly one of 'clusters' or 'generate'")
    if "clusters" in raw:
        where, entries = f"{context}.clusters", raw["clusters"]
        if not isinstance(entries, list):
            raise ConfigurationError(f"{where}: expected a list")
    else:
        where = f"{context}.generate"
        entries = _parse_generate(raw["generate"], where)
    parsed = [_parse_cluster(c, f"{where}[{k}]") for k, c in enumerate(entries)]
    with _section(context):
        scattering = ScatteringConfig(
            clusters=tuple(cluster for cluster, _ in parsed),
            sigma_azimuth=math.radians(sigma_az),
            sigma_elevation=math.radians(sigma_el),
            directivity_a=directivity[0],
            directivity_b=directivity[1],
            gain=beta,
        )
    return scattering, {
        "model": model,
        "sigma_azimuth_deg": sigma_az,
        "sigma_elevation_deg": sigma_el,
        "clusters": [record for _, record in parsed],
    }


def _parse_directivity(raw: Any) -> tuple[float, float]:
    if raw is None:
        return 0.0, 0.0
    raw = _object(raw, {"a", "b"}, "directivity")
    return _number(raw.get("a", 0.0), "directivity.a"), _number(raw.get("b", 0.0), "directivity.b")


_QUADRATURE_FIELDS: dict[str, Callable[[Any, str], Any]] = {
    "nodes_azimuth": _integer,
    "nodes_elevation": _integer,
    "support_radius": lambda value, context: None if value is None else _number(value, context),
    "density_check_tol": _number,
}


def _parse_quadrature(raw: Any) -> QuadratureSpec:
    context = "quadrature"
    if raw is None:
        return QuadratureSpec()
    raw = _object(raw, set(_QUADRATURE_FIELDS), context)
    kwargs = {
        key: convert(raw[key], f"{context}.{key}")
        for key, convert in _QUADRATURE_FIELDS.items()
        if key in raw
    }
    with _section(context):
        return QuadratureSpec(**kwargs)


def load_config(
    path: str | Path, seed_override: int | None = None, stem_override: str | None = None
) -> ExperimentConfig:
    """Parse and validate a JSON run configuration.

    `seed_override` replaces the config seed (CLI --seed); `stem_override`
    replaces the output filename stem, which otherwise defaults to the config
    filename without extension. The returned config's `resolved` record is
    assembled from the values parsed here, overrides and drawn clusters
    included, so the record is a config that reproduces the run.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    raw = _object(raw, _TOP_LEVEL_KEYS, str(path))

    geometry = _parse_geometry(_require(raw, "geometry", str(path)))
    beta = _number(raw.get("beta", 1.0), "beta")
    # Checked here as well as in ScatteringConfig and build_isotropic, whose
    # ValueError is no ConfigurationError: the CLI would exit with a traceback.
    if not beta > 0:
        raise ConfigurationError(f"beta: must be positive, got {beta}")
    directivity = _parse_directivity(raw.get("directivity"))
    scattering, scattering_record = _parse_scattering(
        _require(raw, "scattering", str(path)), beta, directivity
    )
    clustered = scattering is not None
    if not clustered and directivity != (0.0, 0.0):
        raise ConfigurationError(
            "directivity: nonzero exponents require clustered scattering "
            "(the isotropic model assumes isotropic antennas)"
        )

    correlation_model = raw.get("correlation_model", "exact")
    if correlation_model not in _CORRELATION_MODELS:
        raise ConfigurationError(
            f"correlation_model: expected one of {_CORRELATION_MODELS}, got {correlation_model!r}"
        )
    if not clustered and "correlation_model" in raw:
        raise ConfigurationError("correlation_model only applies to clustered scattering")

    default_models = ["exact", "isotropic"] if clustered else ["isotropic"]
    models = _choices(raw.get("models", default_models), _REPORT_MODELS, "models")
    if not clustered and models != ("isotropic",):
        raise ConfigurationError("models: 'exact' and 'approx' require clustered scattering")

    raw_snr = raw.get("snr_grid_db", list(_DEFAULT_SNR_GRID_DB))
    if not isinstance(raw_snr, list) or not raw_snr:
        raise ConfigurationError("snr_grid_db: expected a non-empty list")
    snr_grid_db = tuple(_number(v, f"snr_grid_db[{k}]") for k, v in enumerate(raw_snr))
    for k, snr_db in enumerate(snr_grid_db):
        if abs(snr_db) > _MAX_ABS_SNR_DB:
            raise ConfigurationError(
                f"snr_grid_db[{k}]: must lie in [-{_MAX_ABS_SNR_DB:g}, {_MAX_ABS_SNR_DB:g}] dB, "
                f"got {snr_db!r}"
            )
    if any(b <= a for a, b in zip(snr_grid_db, snr_grid_db[1:])):
        raise ConfigurationError("snr_grid_db: values must be strictly increasing")

    trials = _integer(raw.get("trials", 1000), "trials", minimum=1)
    seed = _integer(raw.get("seed", 0), "seed", minimum=0)
    if seed_override is not None:
        seed = _integer(seed_override, "seed override", minimum=0)
    names = raw.get("estimators", list(_ESTIMATOR_NAMES))
    estimators = tuple(map(Estimator, _choices(names, _ESTIMATOR_NAMES, "estimators")))
    quadrature = _parse_quadrature(raw.get("quadrature"))

    stem = stem_override if stem_override is not None else raw.get("output_stem", path.stem)
    if not isinstance(stem, str) or not stem or any(c in stem for c in ("/", "\\", "\0")):
        raise ConfigurationError(f"output_stem: expected a bare filename stem, got {stem!r}")

    resolved = {
        "geometry": {
            "m_h": geometry.num_horizontal,
            "m_v": geometry.num_vertical,
            "spacing_over_lambda": geometry.spacing_fraction,
        },
        "beta": beta,
        "scattering": scattering_record,
        "models": list(models),
        "snr_grid_db": list(snr_grid_db),
        "trials": trials,
        "seed": seed,
        "estimators": [e.value for e in estimators],
        "quadrature": asdict(quadrature),
        "output_stem": stem,
    }
    if clustered:
        resolved["correlation_model"] = correlation_model
        resolved["directivity"] = {"a": directivity[0], "b": directivity[1]}
    return ExperimentConfig(
        geometry=geometry,
        scattering_model=scattering_record["model"],
        scattering=scattering,
        beta=beta,
        correlation_model=correlation_model if clustered else "isotropic",
        models=models,
        snr_grid_db=snr_grid_db,
        trials=trials,
        seed=seed,
        estimators=estimators,
        quadrature=quadrature,
        output_stem=stem,
        resolved=resolved,
    )
