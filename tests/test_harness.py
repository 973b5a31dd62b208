"""Tests for the run harness (file outputs) and the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holomimo.harness
from holomimo import (
    AccuracyError,
    ConfigurationError,
    Estimator,
    build_isotropic,
    load_config,
    load_matrix,
)
from holomimo.cli import main, preset_names, resolve_config_path
from holomimo.harness import (
    run_approx_validation,
    run_eigen_report,
    run_export_matrix,
    run_nmse_sweep,
)


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def isotropic_payload(**overrides):
    payload = {
        "geometry": {"m_h": 4, "m_v": 4, "spacing_over_lambda": 0.25},
        "scattering": {"model": "isotropic"},
        "snr_grid_db": [-10.0, 0.0, 10.0],
        "trials": 64,
    }
    payload.update(overrides)
    return payload


def clustered_payload(**overrides):
    payload = {
        "geometry": {"m_h": 4, "m_v": 4, "spacing_over_lambda": 0.25},
        "scattering": {
            "model": "clustered",
            "sigma_azimuth_deg": 6.0,
            "sigma_elevation_deg": 6.0,
            "clusters": [
                {"azimuth_deg": 25.0, "elevation_deg": -10.0, "power": 0.7},
                {"azimuth_deg": -30.0, "elevation_deg": 15.0, "power": 0.3},
            ],
        },
        "snr_grid_db": [-10.0, 0.0, 10.0],
        "trials": 64,
    }
    payload.update(overrides)
    return payload


class TestEigenReport:
    def test_file_set_and_summary(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        summary, paths = run_eigen_report(config, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == [
            "run_eigen_summary.json",
            "run_spectrum_exact.csv",
            "run_spectrum_isotropic.csv",
        ]
        for p in paths:
            assert p.is_file()
        assert summary["num_antennas"] == 16
        assert summary["rank_fraction_prediction"] == pytest.approx(np.pi / 16)
        assert set(summary["models"]) == {"exact", "isotropic"}
        model = summary["models"]["exact"]
        assert model["trace"] == pytest.approx(16.0)
        assert 1 <= model["effective_rank"] <= 16
        assert model["spectrum_csv"] == "run_spectrum_exact.csv"
        assert "exact_vs_isotropic" in summary["cmd"]
        assert 0.0 <= summary["cmd"]["exact_vs_isotropic"] <= 2.0
        assert summary["config"]["geometry"]["m_h"] == 4

    def test_spectrum_csv_layout(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        _, paths = run_eigen_report(config, tmp_path / "out")
        csv_path = next(p for p in paths if p.suffix == ".csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config: {")
        assert lines[1] == "index,eigenvalue,cum_energy_fraction"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 16
        assert [int(r[0]) for r in rows] == list(range(1, 17))
        eigenvalues = [float(r[1]) for r in rows]
        assert eigenvalues == sorted(eigenvalues, reverse=True)
        assert float(rows[-1][2]) == pytest.approx(1.0, abs=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, clustered_payload())
        _, first = run_eigen_report(load_config(path), tmp_path / "a")
        _, second = run_eigen_report(load_config(path), tmp_path / "b")
        for p_a, p_b in zip(first, second):
            assert p_a.read_bytes() == p_b.read_bytes()

    def test_failure_removes_partial_outputs(self, tmp_path):
        payload = clustered_payload(
            models=["isotropic", "exact"],
            quadrature={"nodes_azimuth": 8, "nodes_elevation": 8},
        )
        config = load_config(write_config(tmp_path, payload))
        out_dir = tmp_path / "out"
        with pytest.raises(AccuracyError):
            run_eigen_report(config, out_dir)
        assert list(out_dir.iterdir()) == []


class TestNmseSweep:
    def test_record_grid_and_files(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        records, paths = run_nmse_sweep(config, tmp_path / "out")
        assert sorted(p.name for p in paths) == ["run_nmse.csv", "run_nmse.json"]
        assert len(records) == 3 * len(Estimator)
        for rec in records:
            assert rec.nmse_mc > 0
            assert rec.trials == 64

    def test_csv_layout_and_ls_analytic_column(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        _, paths = run_nmse_sweep(config, tmp_path / "out")
        csv_path = next(p for p in paths if p.suffix == ".csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config: {")
        assert lines[1] == "estimator,snr_db,nmse_mc,nmse_ci95,nmse_analytic,trials"
        ls_rows = [line.split(",") for line in lines[2:] if line.startswith("ls,")]
        assert len(ls_rows) == 3
        for row in ls_rows:
            snr_db = float(row[1])
            # unit-gain channel: the least-squares error floor is the inverse SNR
            assert float(row[4]) == pytest.approx(10.0 ** (-snr_db / 10.0), rel=1e-14)
            assert row[5] == "64"

    def test_json_payload(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        records, paths = run_nmse_sweep(config, tmp_path / "out")
        payload = json.loads(next(p for p in paths if p.suffix == ".json").read_text())
        assert payload["truth_model"] == "exact"
        assert payload["warnings"] == []
        assert payload["container_rank"] == 16
        assert payload["containment_residual"] < 1e-8
        assert len(payload["records"]) == len(records)
        first = payload["records"][0]
        assert first["estimator"] == records[0].estimator.value
        assert first["nmse_mc"] == records[0].nmse_mc

    def test_isotropic_truth_is_decomposed_once(self, tmp_path, monkeypatch):
        # dense enough that the container (numerical rank 51) is a proper subspace
        geometry = {"m_h": 8, "m_v": 8, "spacing_over_lambda": 0.125}
        config = load_config(write_config(tmp_path, isotropic_payload(geometry=geometry)))
        assert Estimator.CONSERVATIVE_RSLS in config.estimators
        calls = []
        decompose = holomimo.harness.eigendecompose

        def counting(matrix, **kwargs):
            calls.append(matrix.provenance.label)
            return decompose(matrix, **kwargs)

        monkeypatch.setattr(holomimo.harness, "eigendecompose", counting)
        _, reused = run_nmse_sweep(config, tmp_path / "reused")
        assert calls == ["isotropic"]

        # the same sweep with the container decomposed separately, as before
        monkeypatch.setattr(
            holomimo.harness,
            "_isotropic_basis",
            lambda config, truth_model, truth: decompose(
                build_isotropic(config.geometry, config.beta)
            ),
        )
        _, separate = run_nmse_sweep(config, tmp_path / "separate")
        assert calls == ["isotropic"] * 2  # the wrapper sees the truth solve only
        assert json.loads(reused[-1].read_text())["container_rank"] == 51
        for first, second in zip(reused, separate):
            assert first.read_bytes() == second.read_bytes()

    def test_invalid_oracle_blanks_analytic_column(self, tmp_path, monkeypatch):
        # force a containment failure: the conservative oracle must be
        # withheld rather than reported wrong
        monkeypatch.setattr(
            holomimo.harness, "subspace_containment_residual", lambda *args: 1.0e-3
        )
        config = load_config(write_config(tmp_path, clustered_payload()))
        records, paths = run_nmse_sweep(config, tmp_path / "out")
        conservative = [r for r in records if r.estimator is Estimator.CONSERVATIVE_RSLS]
        assert conservative and all(r.nmse_analytic is None for r in conservative)
        others = [r for r in records if r.estimator is not Estimator.CONSERVATIVE_RSLS]
        assert all(r.nmse_analytic is not None for r in others)

        payload = json.loads(next(p for p in paths if p.suffix == ".json").read_text())
        assert len(payload["warnings"]) == 1
        assert "containment" in payload["warnings"][0]
        csv_lines = next(p for p in paths if p.suffix == ".csv").read_text().splitlines()
        for line in csv_lines[2:]:
            fields = line.split(",")
            if fields[0] == Estimator.CONSERVATIVE_RSLS.value:
                assert fields[4] == ""


class TestApproxValidation:
    def test_report_fields(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        report, paths = run_approx_validation(config, tmp_path / "out")
        assert [p.name for p in paths] == ["run_approx_validation.json"]
        assert 0.0 <= report["cmd"] < 0.5
        assert report["max_entry_deviation"] > 0.0
        assert report["max_eigenvalue_deviation_rel"] < 0.5
        check = report["quadrature_self_check"]
        assert check["status"] == "pass"
        assert abs(check["worst_relative_error"]) <= check["tolerance"]
        assert len(check["per_cluster_relative_error"]) == 2
        on_disk = json.loads(paths[0].read_text())
        assert on_disk["cmd"] == report["cmd"]

    def test_requires_clustered_scattering(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        with pytest.raises(ConfigurationError, match="clustered"):
            run_approx_validation(config, tmp_path / "out")


class TestExportMatrix:
    def test_container_roundtrip(self, tmp_path):
        config = load_config(write_config(tmp_path, isotropic_payload()))
        manifest, paths = run_export_matrix(config, tmp_path / "out")
        assert manifest["model"] == "isotropic"
        assert manifest["container"] == "run_isotropic.hmrc"
        loaded = load_matrix(paths[0])
        direct = build_isotropic(config.geometry, config.beta)
        assert np.array_equal(loaded.entries, direct.entries)
        assert loaded.gain == 1.0

    def test_csv_sidecar(self, tmp_path):
        config = load_config(write_config(tmp_path, clustered_payload()))
        manifest, paths = run_export_matrix(config, tmp_path / "out", write_csv=True)
        assert manifest["model"] == "exact"
        assert manifest["csv"] == "run_exact.csv"
        names = sorted(p.name for p in paths)
        assert names == ["run_exact.csv", "run_exact.hmrc"]
        csv_text = (tmp_path / "out" / "run_exact.csv").read_text()
        assert csv_text.startswith("#")


class TestPresets:
    def test_packaged_presets_resolve(self):
        names = preset_names()
        assert {"fig1_desk", "fig2_desk", "fig3_desk", "fig4_desk"} <= set(names)
        for name in names:
            path = resolve_config_path(name)
            assert path.is_file()
            load_config(path)

    def test_real_path_wins(self, tmp_path):
        path = write_config(tmp_path, isotropic_payload())
        assert resolve_config_path(str(path)) == path

    def test_missing_config_message_lists_presets(self):
        with pytest.raises(ConfigurationError, match="config not found"):
            resolve_config_path("no_such_config")


class TestCli:
    def test_eigen_report_success_prints_paths(self, tmp_path, capsys):
        path = write_config(tmp_path, isotropic_payload())
        code = main(["eigen-report", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        for line in printed:
            written = Path(line)
            assert written.is_file()
            assert written.parent == tmp_path / "out"

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["eigen-report", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config not found" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code = main(["nmse-sweep", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_accuracy_failure_exits_2(self, tmp_path, capsys):
        payload = clustered_payload(quadrature={"nodes_azimuth": 8, "nodes_elevation": 8})
        path = write_config(tmp_path, payload)
        code = main(["approx-validate", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nodes" in capsys.readouterr().err

    def test_bad_thread_count_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, isotropic_payload())
        code = main(["nmse-sweep", str(path), "--threads", "0"])
        assert code == 1
        assert "--threads" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "eigen-report" in capsys.readouterr().out

    def test_seed_override_changes_monte_carlo(self, tmp_path, capsys):
        path = write_config(tmp_path, isotropic_payload())
        assert main(["nmse-sweep", str(path), "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["nmse-sweep", str(path), "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
        assert main(["nmse-sweep", str(path), "--out", str(tmp_path / "c"), "--seed", "6"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "run_nmse.csv").read_bytes()
        b = (tmp_path / "b" / "run_nmse.csv").read_bytes()
        c = (tmp_path / "c" / "run_nmse.csv").read_bytes()
        assert a == b
        assert a != c

    def test_stem_override_renames_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, isotropic_payload())
        code = main(
            ["export-matrix", str(path), "--out", str(tmp_path / "out"), "--stem", "custom"]
        )
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "custom_isotropic.hmrc").is_file()

    def test_preset_runs_end_to_end(self, tmp_path, capsys):
        code = main(["eigen-report", "fig4_desk", "--out", str(tmp_path / "out")])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "fig4_desk_eigen_summary.json").is_file()

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "holomimo", "--help"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert "holomimo" in result.stdout
