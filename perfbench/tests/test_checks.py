"""Tests of the benchmark's output checks and tracer.

The checks must accept what the CLI writes and reject corrupted artifacts.
Outputs come from the CLI at desk scale (a 10x10 array with the fig2 scene),
so the suite runs in seconds:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

import pytest

from holomimo import load_config
from holomimo.cli import main

import checks
import measure
import tracer
from checks import CheckFailed
from workloads import WORKLOADS, Workload

SIDE = 10
SWEEP = ["small_nmse.csv", "small_nmse.json"]
EIGEN = ["small_spectrum_isotropic.csv", "small_spectrum_exact.csv", "small_eigen_summary.json"]
EXPORT = ["small_exact.hmrc"]
HEADER_SIZE = 21
SRC = Path(checks.__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Config and CLI outputs of all three commands on one small scene."""
    root = tmp_path_factory.mktemp("produced")
    raw = json.loads((resources.files("holomimo") / "presets" / "fig2_desk.json").read_text())
    raw["geometry"].update(m_h=SIDE, m_v=SIDE)
    raw["trials"] = 800
    raw["output_stem"] = "small"
    config_path = root / "small.json"
    config_path.write_text(json.dumps(raw))
    out = root / "out"
    for command in ("nmse-sweep", "eigen-report", "export-matrix"):
        assert main([command, str(config_path), "--out", str(out)]) == 0
    return load_config(config_path), out


@pytest.fixture
def outputs(produced, tmp_path):
    """A private copy of the produced artifacts, free to corrupt."""
    config, out = produced
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return config, copy


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _sweep(config, out):
    checks.check_sweep([out / n for n in SWEEP], config)


def _eigen(config, out, ranks=None):
    checks.check_eigen([out / n for n in EIGEN], config, ranks)


def _export(config, out):
    checks.check_export([out / n for n in EXPORT], config, out)


def test_checks_accept_cli_outputs(outputs):
    config, out = outputs
    _sweep(config, out)
    _eigen(config, out)
    _export(config, out)
    summary = json.loads((out / EIGEN[-1]).read_text())["models"]["isotropic"]
    _eigen(config, out, (summary["effective_rank"], summary["numerical_rank"]))
    assert not (out / f"roundtrip_{EXPORT[0]}").exists()


def test_listing_must_match_exactly(outputs):
    _, out = outputs
    stdout = "".join(f"{out / n}\n" for n in SWEEP)
    assert checks.check_listing(stdout, out, SWEEP) == [out / n for n in SWEEP]
    with pytest.raises(CheckFailed):
        checks.check_listing(stdout + f"{out / 'extra.csv'}\n", out, SWEEP)
    with pytest.raises(CheckFailed):
        checks.check_listing("".join(f"{out / n}\n" for n in reversed(SWEEP)), out, SWEEP)


def _nan_record(data):
    data["records"][5]["nmse_mc"] = math.nan


def _swap_estimator_labels(data):
    # mmse and ls at the first SNR trade names: the estimator order is wrong.
    first, last = data["records"][0], data["records"][3]
    first["estimator"], last["estimator"] = last["estimator"], first["estimator"]


def _swap_record_order(data):
    records = data["records"]
    records[0], records[1] = records[1], records[0]


def _beyond_four_sigma(data):
    # Still within 3% of the oracle, but 4.5 standard errors away from it.
    rec = min(data["records"], key=lambda r: r["nmse_mc_ci95"] / r["nmse_analytic"])
    rec["nmse_mc"] = rec["nmse_analytic"] + 4.5 * rec["nmse_mc_ci95"] / 1.96
    assert rec["nmse_mc"] < 1.03 * rec["nmse_analytic"]


def _drift_from_oracle(data):
    data["records"][2]["nmse_mc"] *= 1.05


def _leak_container(data):
    data["containment_residual"] = 1e-3


def _other_config(data):
    data["config"]["trials"] += 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_record, "non-finite"),
        (_swap_estimator_labels, "records are"),
        (_swap_record_order, "records are"),
        (_beyond_four_sigma, "standard errors"),
        (_drift_from_oracle, "standard errors|from the oracle"),
        (_leak_container, "containment residual"),
        (_other_config, "embedded config"),
    ],
)
def test_sweep_check_rejects_corrupted_json(outputs, corrupt, message):
    config, out = outputs
    _edit_json(out / SWEEP[1], corrupt)
    with pytest.raises(CheckFailed, match=message):
        _sweep(config, out)


def test_sweep_check_rejects_csv_that_disagrees_with_json(outputs):
    config, out = outputs
    path = out / SWEEP[0]
    lines = path.read_text().split("\n")
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-12))
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(CheckFailed, match="does not mirror"):
        _sweep(config, out)


def _wrong_m(data):
    data["num_antennas"] += 1


def _wrong_rank(data):
    data["models"]["exact"]["effective_rank"] += 1


@pytest.mark.parametrize("corrupt", [_wrong_m, _wrong_rank])
def test_eigen_check_rejects_corrupted_summary(outputs, corrupt):
    config, out = outputs
    _edit_json(out / EIGEN[-1], corrupt)
    with pytest.raises(CheckFailed):
        _eigen(config, out)


def test_eigen_check_rejects_unexpected_isotropic_ranks(outputs):
    config, out = outputs
    with pytest.raises(CheckFailed, match="isotropic ranks"):
        _eigen(config, out, (1, 1))


@pytest.mark.parametrize("row", [2, 40])
def test_eigen_check_rejects_unsorted_or_nan_spectrum(outputs, row):
    config, out = outputs
    path = out / EIGEN[1]
    lines = path.read_text().split("\n")
    if row == 2:
        lines[2], lines[3] = lines[3], lines[2]
    else:
        index, _, cumulative = lines[row].split(",")
        lines[row] = ",".join((index, "nan", cumulative))
    path.write_text("\n".join(lines))
    with pytest.raises(CheckFailed):
        _eigen(config, out)


def _patch_container(path, offset, data):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(data)] = data
    path.write_bytes(bytes(raw))


def test_export_check_rejects_wrong_m(outputs):
    config, out = outputs
    path = out / EXPORT[0]
    _patch_container(path, 8, struct.pack("<I", SIDE * SIDE + 1))
    with pytest.raises(CheckFailed):
        _export(config, out)


def test_export_check_rejects_non_hermitian_container(outputs):
    # The container stores the upper triangle only, so a complex diagonal is
    # the one way its matrix can fail to be Hermitian.
    config, out = outputs
    _patch_container(out / EXPORT[0], HEADER_SIZE, struct.pack("<dd", 1.0, 1e-3))
    with pytest.raises(CheckFailed, match="Hermitian"):
        _export(config, out)


def test_export_check_rejects_perturbed_entry(outputs):
    config, out = outputs
    path = out / EXPORT[0]
    offset = HEADER_SIZE + 16 * 7
    (real, imag) = struct.unpack_from("<dd", path.read_bytes(), offset)
    _patch_container(path, offset, struct.pack("<dd", real * (1 + 1e-9), imag))
    with pytest.raises(CheckFailed, match="deviate"):
        _export(config, out)


@pytest.mark.parametrize(
    ("ulps", "accepted"), [(-1, True), (-2, True), (1, True), (-3, False), (2, False)]
)
def test_export_check_bounds_the_diagonal_by_rounding(outputs, ulps, accepted):
    # The first stored value is entry (0, 0), which the builder pins to the
    # gain, 1.0 here: two roundings reach 2 ulps below it or 1 ulp above.
    config, out = outputs
    path = out / EXPORT[0]
    (real, imag) = struct.unpack_from("<dd", path.read_bytes(), HEADER_SIZE)
    assert (real, imag) == (config.beta, 0.0)
    step = math.nextafter(real, math.copysign(math.inf, ulps)) - real
    _patch_container(path, HEADER_SIZE, struct.pack("<dd", real + ulps * abs(step), imag))
    if accepted:
        _export(config, out)
    else:
        with pytest.raises(CheckFailed, match="diagonal"):
            _export(config, out)


def test_workloads_generate_configs_from_the_seed(tmp_path):
    for name, workload in WORKLOADS.items():
        argument, config = workload.prepare(tmp_path, 11)
        assert config.seed == 11
        again = workload.prepare(tmp_path, 11)[1]
        assert again.resolved == config.resolved
        if workload.scene_side is not None:
            assert config.geometry.num_antennas == workload.scene_side**2
            assert config.output_stem == name
            other = workload.prepare(tmp_path, 12)[1]
            assert other.resolved["scattering"] != config.resolved["scattering"]
        assert workload.artifact_names(config)


def test_tracer_records_nested_spans_and_self_times():
    module = types.ModuleType("demo.inner")

    def leaf(n):
        return sum(range(n))

    def outer(n):
        return module.leaf(n) + module.leaf(n)

    leaf.__module__ = outer.__module__ = "demo.inner"
    module.leaf, module.outer = leaf, outer
    spans = tracer.Tracer()
    spans.wrap(module, "leaf", lambda bound, result: {"n": bound.arguments["n"]})
    spans.wrap(module, "outer")
    assert module.outer(n=1000) == 2 * sum(range(1000))

    names = [span.name for span in spans.spans]
    assert names == ["inner.outer", "inner.leaf", "inner.leaf"]
    assert [span.parent for span in spans.spans] == [None, 0, 0]
    assert [span.counts for span in spans.spans] == [{}, {"n": 1000}, {"n": 1000}]
    own = spans.self_times()
    assert own[0] == pytest.approx(
        spans.spans[0].duration - spans.spans[1].duration - spans.spans[2].duration
    )
    assert sum(own) == pytest.approx(spans.spans[0].duration)


def test_traced_cli_keeps_artifact_bytes(produced, tmp_path):
    _, out = produced
    spans_path = tmp_path / "spans.json"
    argv = ["eigen-report", str(out.parent / "small.json"), "--out", str(tmp_path / "traced")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, tracer.__file__, str(spans_path), "--", *argv],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    spans = json.loads(spans_path.read_text())
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    names = {span["name"] for span in spans}
    assert {"config.load_config", "harness.run_eigen_report", "spectral.eigendecompose"} <= names
    assert sum(span["self_s"] for span in spans) == pytest.approx(
        spans[0]["end"] - spans[0]["start"]
    )
    for name in EIGEN:
        assert (tmp_path / "traced" / name).read_bytes() == (out / name).read_bytes()


def test_session_checks_the_first_run_and_compares_later_bytes(tmp_path):
    workload = Workload("tiny_export", "export-matrix", 6)
    session = measure.Session(workload, 3, 0.0, tmp_path)
    cli = [sys.executable, "-m", "holomimo"]
    runs = session.measured_runs()
    assert len(runs) == 1 and runs[0].exit_code == 0
    assert session.failed == 0 and session.reference is not None
    assert session.artifact_bytes == 21 + 16 * 36 * 37 // 2
    session.cli_run("again", cli)
    assert (session.children, session.failed) == (2, 0)
    session.reference = ["0" * 64]
    session.cli_run("differs", cli)
    assert (session.children, session.failed) == (3, 1)
    assert not any(p.is_dir() for p in tmp_path.iterdir())


def test_layer_metrics_use_self_times_and_counts():
    def span(name, start, end, self_s, **counts):
        return {"name": name, "start": start, "end": end, "self_s": self_s, "counts": counts}

    figures = measure.layer_metrics(
        [
            span("cli.main", 0.0, 10.0, 0.5),
            span("harness.run_nmse_sweep", 0.5, 10.0, 1.5),
            span("estimation.monte_carlo_nmse", 1.0, 5.0, 4.0, trials=500),
            span("estimation.monte_carlo_nmse", 5.0, 9.0, 4.0, trials=500),
        ]
    )
    assert figures["harness.self_s"] == 1.5
    assert figures["estimation.monte_carlo_nmse_calls"] == 2
    assert figures["estimation.trials_per_s"] == 1000 / 8.0
    assert figures["spectral.eigendecompose_s"] == 0.0
    assert figures["trace.cli_main_s"] == 10.0
