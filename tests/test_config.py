"""Tests for JSON config parsing, validation, and canonical resolution."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holomimo import ArrayGeometry, ConfigurationError, Estimator, load_config


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def isotropic_payload():
    return {
        "geometry": {"m_h": 4, "m_v": 4, "spacing_over_lambda": 0.25},
        "scattering": {"model": "isotropic"},
    }


def clustered_payload():
    return {
        "geometry": {"m_h": 4, "m_v": 4, "spacing_over_lambda": 0.25},
        "beta": 2.0,
        "scattering": {
            "model": "clustered",
            "sigma_azimuth_deg": 5.0,
            "sigma_elevation_deg": 4.0,
            "clusters": [
                {"azimuth_deg": 30.0, "elevation_deg": -10.0, "power": 0.7},
                {"azimuth_deg": -20.0, "elevation_deg": 15.0, "power": 0.3},
            ],
        },
    }


def generated_payload():
    payload = clustered_payload()
    del payload["scattering"]["clusters"]
    payload["scattering"]["generate"] = {
        "count": 3,
        "power_decay": 2.0,
        "azimuth_range_deg": [-45.0, 45.0],
        "elevation_range_deg": [-20.0, 20.0],
        "seed": 3,
    }
    return payload


def set_path(payload, path, value):
    """Replace the value at `path`, a tuple of object keys and list indices."""
    *parents, last = path
    for key in parents:
        payload = payload[key]
    payload[last] = value


class TestDefaults:
    def test_isotropic_minimal(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        assert config.geometry.num_antennas == 16
        assert config.geometry.spacing_fraction == 0.25
        assert config.scattering_model == "isotropic"
        assert config.scattering is None
        assert config.beta == 1.0
        assert config.trials == 1000
        assert config.seed == 0
        assert config.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
        assert config.estimators == tuple(Estimator)
        assert config.models == ("isotropic",)
        assert config.output_stem == "run"

    def test_clustered_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        assert config.correlation_model == "exact"
        assert config.models == ("exact", "isotropic")
        assert config.quadrature.nodes_azimuth == 96

    def test_quadrature_defaults_and_overrides(self, tmp_path):
        payload = clustered_payload()
        payload["quadrature"] = {"nodes_azimuth": 48, "support_radius": None}
        config = load_config(write_config(tmp_path, payload))
        assert config.quadrature.nodes_azimuth == 48
        assert config.quadrature.nodes_elevation == 96
        assert config.quadrature.support_radius is None


class TestGeometry:
    def test_explicit_meters(self, tmp_path):
        payload = isotropic_payload()
        payload["geometry"] = {"m_h": 2, "m_v": 3, "spacing_m": 0.05, "wavelength_m": 0.2}
        config = load_config(write_config(tmp_path, payload))
        assert config.geometry.spacing_fraction == pytest.approx(0.25)
        assert config.geometry.num_antennas == 6

    def test_both_spacing_specs_rejected(self, tmp_path):
        payload = isotropic_payload()
        payload["geometry"]["spacing_m"] = 0.1
        with pytest.raises(ConfigurationError, match="not both"):
            load_config(write_config(tmp_path, payload))

    def test_missing_dimensions(self, tmp_path):
        payload = isotropic_payload()
        del payload["geometry"]["m_v"]
        with pytest.raises(ConfigurationError, match="m_v"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("value", [0, -2, 2.5, True])
    def test_dimensions_must_be_positive_integers(self, tmp_path, value):
        payload = isotropic_payload()
        payload["geometry"]["m_h"] = value
        with pytest.raises(ConfigurationError):
            load_config(write_config(tmp_path, payload))


class TestScattering:
    def test_clusters_parsed_in_degrees(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        clusters = config.scattering.clusters
        assert clusters[0].azimuth == pytest.approx(math.radians(30.0))
        assert clusters[1].elevation == pytest.approx(math.radians(15.0))
        assert config.scattering.sigma_azimuth == pytest.approx(math.radians(5.0))
        assert config.scattering.gain == 2.0

    def test_generate_block(self, tmp_path):
        payload = clustered_payload()
        del payload["scattering"]["clusters"]
        payload["scattering"]["generate"] = {
            "count": 5,
            "power_decay": 3.0,
            "azimuth_range_deg": [-60.0, 60.0],
            "elevation_range_deg": [-30.0, 30.0],
            "seed": 7,
        }
        config = load_config(write_config(tmp_path, payload))
        assert len(config.scattering.clusters) == 5
        assert sum(c.power for c in config.scattering.clusters) == pytest.approx(1.0)
        # the generator is part of the config contract: same seed, same clusters
        again = load_config(write_config(tmp_path, payload, name="again.json"))
        assert config.scattering.clusters == again.scattering.clusters

    def test_clusters_and_generate_are_exclusive(self, tmp_path):
        payload = clustered_payload()
        payload["scattering"]["generate"] = {
            "count": 2,
            "power_decay": 1.0,
            "azimuth_range_deg": [-10.0, 10.0],
            "elevation_range_deg": [-10.0, 10.0],
        }
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_config(write_config(tmp_path, payload))

    def test_cluster_angle_out_of_range(self, tmp_path):
        payload = clustered_payload()
        payload["scattering"]["clusters"][0]["azimuth_deg"] = 90.0
        with pytest.raises(ConfigurationError):
            load_config(write_config(tmp_path, payload))

    def test_unknown_scattering_model(self, tmp_path):
        payload = isotropic_payload()
        payload["scattering"]["model"] = "rayleigh"
        with pytest.raises(ConfigurationError, match="model"):
            load_config(write_config(tmp_path, payload))

    def test_directivity_requires_clustered(self, tmp_path):
        payload = isotropic_payload()
        payload["directivity"] = {"a": 1.0, "b": 1.0}
        with pytest.raises(ConfigurationError, match="directivity"):
            load_config(write_config(tmp_path, payload))

    def test_directivity_flows_into_scattering(self, tmp_path):
        payload = clustered_payload()
        payload["directivity"] = {"a": 2.0, "b": 1.0}
        config = load_config(write_config(tmp_path, payload))
        assert config.scattering.directivity_a == 2.0
        assert config.scattering.directivity_b == 1.0


class TestValidation:
    def test_unknown_top_level_key(self, tmp_path):
        payload = isotropic_payload()
        payload["trails"] = 100
        with pytest.raises(ConfigurationError, match="trails"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_nested_key(self, tmp_path):
        payload = isotropic_payload()
        payload["geometry"]["mh"] = 4
        with pytest.raises(ConfigurationError, match="mh"):
            load_config(write_config(tmp_path, payload))

    def test_snr_grid_strictly_increasing(self, tmp_path):
        payload = isotropic_payload()
        payload["snr_grid_db"] = [0.0, 10.0, 10.0]
        with pytest.raises(ConfigurationError, match="increasing"):
            load_config(write_config(tmp_path, payload))

    def test_correlation_model_needs_clustered(self, tmp_path):
        payload = isotropic_payload()
        payload["correlation_model"] = "approx"
        with pytest.raises(ConfigurationError, match="clustered"):
            load_config(write_config(tmp_path, payload))

    def test_models_require_clustered_scattering(self, tmp_path):
        payload = isotropic_payload()
        payload["models"] = ["isotropic", "exact"]
        with pytest.raises(ConfigurationError, match="clustered"):
            load_config(write_config(tmp_path, payload))

    def test_duplicate_models_rejected(self, tmp_path):
        payload = clustered_payload()
        payload["models"] = ["exact", "exact"]
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_estimator(self, tmp_path):
        payload = isotropic_payload()
        payload["estimators"] = ["mmse", "kalman"]
        with pytest.raises(ConfigurationError, match="kalman"):
            load_config(write_config(tmp_path, payload))

    def test_duplicate_estimator(self, tmp_path):
        payload = isotropic_payload()
        payload["estimators"] = ["ls", "ls"]
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_config(write_config(tmp_path, payload))

    def test_snr_grid_accepts_300_db(self, tmp_path):
        payload = isotropic_payload()
        payload["snr_grid_db"] = [-300.0, 300.0]
        assert load_config(write_config(tmp_path, payload)).snr_grid_db == (-300.0, 300.0)

    @pytest.mark.parametrize("grid, index", [([-300.5, 0.0], 0), ([0.0, 10.0, 300.5], 2)])
    def test_snr_grid_bounded_by_300_db(self, tmp_path, grid, index):
        payload = isotropic_payload()
        payload["snr_grid_db"] = grid
        with pytest.raises(ConfigurationError, match=re.escape(f"snr_grid_db[{index}]")):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_validation(self, tmp_path, seed):
        payload = isotropic_payload()
        payload["seed"] = seed
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_beta_must_be_positive(self, tmp_path, beta):
        payload = isotropic_payload()
        payload["beta"] = beta
        with pytest.raises(ConfigurationError, match="beta"):
            load_config(write_config(tmp_path, payload))

    def test_output_stem_rejects_paths(self, tmp_path):
        payload = isotropic_payload()
        payload["output_stem"] = "../escape"
        with pytest.raises(ConfigurationError, match="stem"):
            load_config(write_config(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nowhere.json")


class TestOverridesAndResolution:
    def test_seed_override(self, tmp_path):
        payload = isotropic_payload()
        payload["seed"] = 11
        path = write_config(tmp_path, payload)
        assert load_config(path).seed == 11
        assert load_config(path, seed_override=99).seed == 99
        with pytest.raises(ConfigurationError):
            load_config(path, seed_override=-1)

    def test_stem_override(self, tmp_path):
        path = write_config(tmp_path, isotropic_payload(), name="mystem.json")
        assert load_config(path).output_stem == "mystem"
        assert load_config(path, stem_override="other").output_stem == "other"

    def test_resolved_embeds_realized_clusters(self, tmp_path):
        payload = clustered_payload()
        del payload["scattering"]["clusters"]
        payload["scattering"]["generate"] = {
            "count": 3,
            "power_decay": 2.0,
            "azimuth_range_deg": [-45.0, 45.0],
            "elevation_range_deg": [-20.0, 20.0],
            "seed": 3,
        }
        config = load_config(write_config(tmp_path, payload))
        resolved_clusters = config.resolved["scattering"]["clusters"]
        assert len(resolved_clusters) == 3
        for raw, cluster in zip(resolved_clusters, config.scattering.clusters):
            assert raw["azimuth_deg"] == pytest.approx(math.degrees(cluster.azimuth))
            assert raw["power"] == cluster.power

    def test_resolved_is_json_serializable(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        text = json.dumps(config.resolved, sort_keys=True)
        assert "spacing_over_lambda" in text
        assert config.resolved["beta"] == 2.0
        assert config.resolved["estimators"] == [e.value for e in Estimator]


class TestTruthModel:
    """The loaded `correlation_model` names every scene's truth model.

    The record keeps the key for clustered scenes only.
    """

    def test_isotropic_scattering_loads_the_isotropic_truth(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        assert config.correlation_model == "isotropic"
        assert "correlation_model" not in config.resolved
        loaded = load_config(write_config(tmp_path, config.resolved, name="record.json"))
        assert loaded == config

    @pytest.mark.parametrize("model", ["exact", "approx"])
    def test_clustered_scattering_keeps_the_configured_builder(self, tmp_path, model):
        payload = clustered_payload()
        payload["correlation_model"] = model
        config = load_config(write_config(tmp_path, payload))
        assert config.correlation_model == model
        assert config.resolved["correlation_model"] == config.correlation_model
        loaded = load_config(write_config(tmp_path, config.resolved, name="record.json"))
        assert loaded == config


class TestRejectedValues:
    """Every rejected value fails at load time with a message naming its section."""

    METERS = {"m_h": 4, "m_v": 4, "spacing_m": 0.05, "wavelength_m": 0.2}
    CASES = [
        (isotropic_payload, ("geometry",), {**METERS, "spacing_m": 0.0}, "geometry"),
        (isotropic_payload, ("geometry",), {**METERS, "spacing_m": -0.05}, "geometry"),
        (isotropic_payload, ("geometry",), {**METERS, "wavelength_m": 0.0}, "geometry"),
        (isotropic_payload, ("geometry",), {**METERS, "wavelength_m": -0.2}, "geometry"),
        (isotropic_payload, ("geometry", "spacing_over_lambda"), 0.0, "geometry"),
        (isotropic_payload, ("geometry", "spacing_over_lambda"), -0.25, "geometry"),
        (clustered_payload, ("quadrature",), {"nodes_azimuth": 1}, "quadrature"),
        (clustered_payload, ("quadrature",), {"nodes_azimuth": 2.5}, "quadrature"),
        (clustered_payload, ("quadrature",), {"nodes_elevation": True}, "quadrature"),
        (clustered_payload, ("quadrature",), {"support_radius": 0.0}, "quadrature"),
        (clustered_payload, ("quadrature",), {"support_radius": -1.0}, "quadrature"),
        (clustered_payload, ("quadrature",), {"density_check_tol": 0.0}, "quadrature"),
        (clustered_payload, ("quadrature",), {"density_check_tol": -1e-6}, "quadrature"),
        (generated_payload, ("scattering", "generate", "count"), 0, "scattering.generate"),
        (generated_payload, ("scattering", "generate", "power_decay"), 0.0, "scattering.generate"),
        (generated_payload, ("scattering", "generate", "power_decay"), -1.0, "scattering.generate"),
        (
            generated_payload,
            ("scattering", "generate", "azimuth_range_deg"),
            [45.0, -45.0],
            "scattering.generate",
        ),
        (
            generated_payload,
            ("scattering", "generate", "azimuth_range_deg"),
            [-90.0, 45.0],
            "scattering.generate",
        ),
        (
            generated_payload,
            ("scattering", "generate", "elevation_range_deg"),
            [-20.0, 95.0],
            "scattering.generate",
        ),
        (generated_payload, ("scattering", "generate", "seed"), -1, "scattering.generate"),
        (clustered_payload, ("directivity",), {"a": -1.0}, "directivity"),
        (clustered_payload, ("directivity",), {"a": 1.0, "b": -0.5}, "directivity"),
        (
            clustered_payload,
            ("scattering", "clusters", 0, "power"),
            -0.1,
            "scattering.clusters[0]",
        ),
        (
            clustered_payload,
            ("scattering", "clusters", 1, "specular"),
            "yes",
            "scattering.clusters[1]",
        ),
        (clustered_payload, ("scattering", "clusters", 1, "specular"), 1, "scattering.clusters[1]"),
    ]

    @pytest.mark.parametrize(
        "factory, path, value, section",
        CASES,
        ids=[".".join(map(str, path)) + f"={value!r}" for _, path, value, _ in CASES],
    )
    def test_rejected_with_section(self, tmp_path, factory, path, value, section):
        payload = factory()
        set_path(payload, path, value)
        with pytest.raises(ConfigurationError, match=re.escape(section)):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_invalid_config_seed_rejected_despite_valid_override(self, tmp_path, seed):
        payload = isotropic_payload()
        payload["seed"] = seed
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(write_config(tmp_path, payload), seed_override=5)


def numbers(low, high):
    """JSON numbers in [low, high], as float literals and, where the range has any, int ones."""
    floats = st.floats(low, high, allow_nan=False, allow_infinity=False)
    if math.ceil(low) > math.floor(high):
        return floats
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), floats)


def subset(choices):
    """A non-empty list of distinct entries from `choices`, in drawn order."""
    return st.lists(st.sampled_from(choices), min_size=1, max_size=len(choices), unique=True)


@st.composite
def clustered_scattering(draw):
    """A clustered scattering section: explicit clusters or a generate block."""
    positive = numbers(1e-3, 30.0).filter(lambda value: value > 0)
    scattering = {
        "model": "clustered",
        "sigma_azimuth_deg": draw(positive),
        "sigma_elevation_deg": draw(positive),
    }
    if draw(st.booleans()):
        angle = st.one_of(
            st.integers(-89, 89), st.floats(-90.0, 90.0, exclude_min=True, exclude_max=True)
        )
        clusters = []
        for _ in range(draw(st.integers(1, 4))):
            cluster = {"azimuth_deg": draw(angle), "elevation_deg": draw(angle)}
            cluster["power"] = draw(numbers(0.0, 5.0))
            if draw(st.booleans()):
                cluster["specular"] = draw(st.booleans())
            clusters.append(cluster)
        clusters[0]["power"] = draw(numbers(0.5, 5.0))
        scattering["clusters"] = clusters
    else:
        pair = st.lists(numbers(-89.0, 89.0), min_size=2, max_size=2).map(sorted)
        ranges = [draw(pair), draw(pair)]
        scattering["generate"] = {
            "count": draw(st.integers(1, 6)),
            "power_decay": draw(numbers(0.5, 10.0)),
            "azimuth_range_deg": ranges[0],
            "elevation_range_deg": ranges[1],
            "seed": draw(st.integers(0, 2**63)),
        }
    return scattering


@st.composite
def config_payloads(draw):
    """Valid configs over both spacing forms, both scattering models and the optional keys."""
    geometry = {"m_h": draw(st.integers(1, 8)), "m_v": draw(st.integers(1, 8))}
    if draw(st.booleans()):
        geometry["spacing_over_lambda"] = draw(numbers(0.01, 2.0).filter(lambda value: value > 0))
    else:
        geometry["spacing_m"] = draw(numbers(1e-3, 3.0).filter(lambda value: value > 0))
        geometry["wavelength_m"] = draw(numbers(1e-3, 3.0).filter(lambda value: value > 0))
    payload = {"geometry": geometry, "beta": draw(numbers(0.1, 10.0).filter(lambda b: b > 0))}
    if draw(st.booleans()):
        payload["scattering"] = draw(clustered_scattering())
        payload["directivity"] = {"a": draw(numbers(0.0, 4.0)), "b": draw(numbers(0.0, 4.0))}
        payload["correlation_model"] = draw(st.sampled_from(["exact", "approx"]))
        payload["models"] = draw(subset(["isotropic", "exact", "approx"]))
    else:
        payload["scattering"] = {"model": "isotropic"}
    if draw(st.booleans()):
        grid = draw(st.lists(numbers(-300.0, 300.0), min_size=1, max_size=5, unique=True))
        payload["snr_grid_db"] = sorted(grid, key=float)
    payload["trials"] = draw(st.integers(1, 10**6))
    payload["seed"] = draw(st.integers(0, 2**63))
    payload["estimators"] = draw(subset([e.value for e in Estimator]))
    if draw(st.booleans()):
        payload["quadrature"] = {
            "nodes_azimuth": draw(st.integers(2, 200)),
            "support_radius": draw(st.one_of(st.none(), numbers(1.0, 20.0))),
            "density_check_tol": draw(numbers(1e-9, 1e-3).filter(lambda tol: tol > 0)),
        }
    return payload


NEGATIVE_57 = {
    "geometry": {"m_h": 4, "m_v": 4, "spacing_over_lambda": 0.25},
    "scattering": {
        "model": "clustered",
        "sigma_azimuth_deg": 5.0,
        "sigma_elevation_deg": 5.0,
        "clusters": [{"azimuth_deg": -57.0, "elevation_deg": -57.0, "power": 1.0}],
    },
}


class TestResolvedRecordIsAFixedPoint:
    """Loading a config's `resolved` record gives the same config, record included."""

    @settings(max_examples=100)
    @given(payload=config_payloads())
    @example(payload=NEGATIVE_57)  # radians(degrees(radians(-57.0))) != radians(-57.0)
    def test_loading_the_record_gives_the_same_config(self, tmp_path_factory, payload):
        directory = tmp_path_factory.mktemp("record")
        config = load_config(write_config(directory, payload, name="authored.json"))
        loaded = load_config(write_config(directory, config.resolved, name="record.json"))
        assert loaded.resolved == config.resolved
        # the record holds the spacing in wavelengths, which loads with wavelength 1
        geometry = config.geometry
        expected = dataclasses.replace(
            config,
            geometry=ArrayGeometry(
                geometry.num_horizontal, geometry.num_vertical, geometry.spacing_fraction, 1.0
            ),
        )
        assert loaded == expected
        if "spacing_over_lambda" in payload["geometry"]:
            assert loaded == config
