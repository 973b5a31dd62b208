"""Tests for the run harness (file outputs) and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holomimo
import holomimo.estimation
import holomimo.harness
import holomimo.scattering
from holomimo import (
    AccuracyError,
    ConfigurationError,
    EigenBasis,
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


def fail_json_write(monkeypatch, seen):
    """Make the first JSON write raise, noting the files already on disk."""
    write_text = Path.write_text

    def failing(self, *args, **kwargs):
        if self.suffix == ".json":
            seen.append(sorted(p.name for p in self.parent.iterdir()))
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)


def fail_csv_export(monkeypatch, seen):
    """Make the matrix CSV export raise, noting the files already on disk."""

    def failing(path, matrix):
        seen.append(sorted(p.name for p in Path(path).parent.iterdir()))
        raise OSError("disk full")

    monkeypatch.setattr(holomimo.harness, "export_matrix_csv", failing)


def config_is_a_directory(tmp_path):
    (tmp_path / "run.json").mkdir()
    return [str(tmp_path / "run.json")]


def config_is_not_utf8(tmp_path):
    text = json.dumps(isotropic_payload(output_stem="caf\u00e9"), ensure_ascii=False)
    (tmp_path / "run.json").write_bytes(text.encode("latin-1"))
    return [str(tmp_path / "run.json")]


def out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return [str(write_config(tmp_path, isotropic_payload())), "--out", str(tmp_path / "taken")]


def out_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / "taken" / "out")
    return [str(write_config(tmp_path, isotropic_payload())), "--out", out]


def stem_with_nul(tmp_path):
    path = write_config(tmp_path, isotropic_payload(output_stem="a\0b"))
    return [str(path), "--out", str(tmp_path / "out")]


def stem_too_long(tmp_path):
    path = write_config(tmp_path, isotropic_payload())
    return [str(path), "--out", str(tmp_path / "out"), "--stem", "s" * 300]


class TestOutputContract:
    """The rules every run's artifacts share: stem prefix and embedded config."""

    @pytest.mark.parametrize(
        "run", [run_eigen_report, run_nmse_sweep, run_approx_validation], ids=lambda r: r.__name__
    )
    def test_artifacts_embed_resolved_config_under_the_stem(self, tmp_path, run):
        payload = clustered_payload(models=["exact", "isotropic", "approx"])
        config = load_config(write_config(tmp_path, payload), stem_override="pinned")
        comment = "# config: " + json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))
        _, paths = run(config, tmp_path / "out")
        assert paths
        for path in paths:
            assert path.name.startswith("pinned_")
            if path.suffix == ".csv":
                assert path.read_text().splitlines()[0] == comment
            else:
                assert path.suffix == ".json"
                assert json.loads(path.read_text())["config"] == config.resolved

    @pytest.mark.parametrize(
        "run, breaker, first_file",
        [
            (run_nmse_sweep, fail_json_write, "run_nmse.csv"),
            (
                lambda config, out_dir: run_export_matrix(config, out_dir, write_csv=True),
                fail_csv_export,
                "run_exact.hmrc",
            ),
        ],
        ids=["nmse-sweep", "export-matrix-csv"],
    )
    def test_failure_after_first_file_removes_it(
        self, tmp_path, monkeypatch, run, breaker, first_file
    ):
        config = load_config(write_config(tmp_path, clustered_payload()))
        out_dir = tmp_path / "out"
        seen = []
        breaker(monkeypatch, seen)
        with pytest.raises(OSError, match="disk full"):
            run(config, out_dir)
        assert seen == [[first_file]]
        assert list(out_dir.iterdir()) == []


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

    def test_isotropic_scattering_records_the_isotropic_truth(self, tmp_path):
        # the truth model load_config settles; no preset sweeps an isotropic scene
        config = load_config(write_config(tmp_path, isotropic_payload()))
        _, paths = run_nmse_sweep(config, tmp_path / "out")
        assert json.loads(paths[-1].read_text())["truth_model"] == "isotropic"

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

    @pytest.mark.parametrize("payload", [clustered_payload, isotropic_payload])
    def test_container_reaches_monte_carlo_as_its_eigenbasis(self, tmp_path, monkeypatch, payload):
        # eigendecompose's basis is orthonormal by construction: the sweep
        # hands it over whole, and no Gram check runs on it
        checked, containers = [], []
        monkeypatch.setattr(
            holomimo.estimation, "_check_orthonormal", lambda subspace: checked.append(subspace)
        )
        engine = holomimo.harness.monte_carlo_nmse

        def spy(basis, *args, container_subspace=None, **kwargs):
            containers.append((basis, container_subspace))
            return engine(basis, *args, container_subspace=container_subspace, **kwargs)

        monkeypatch.setattr(holomimo.harness, "monte_carlo_nmse", spy)
        config = load_config(write_config(tmp_path, payload()))
        assert config.estimators == tuple(Estimator)
        _, paths = run_nmse_sweep(config, tmp_path / "out")
        assert checked == []
        [(truth, container)] = containers
        assert isinstance(container, EigenBasis)
        assert (container is truth) == (payload is isotropic_payload)
        rank = json.loads(paths[-1].read_text())["container_rank"]
        assert rank == container.numerical_rank

    def test_sweep_without_the_conservative_estimator_has_no_container(self, tmp_path):
        payload = clustered_payload(estimators=["mmse", "ls", "rsls"])
        _, paths = run_nmse_sweep(load_config(write_config(tmp_path, payload)), tmp_path / "out")
        summary = json.loads(paths[-1].read_text())
        assert summary["container_rank"] is None and summary["containment_residual"] is None

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

    def test_unconverged_reference_integral_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(holomimo.scattering, "MAX_BISECTIONS", 2)
        code = main(["eigen-report", "fig1_desk", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_cli_run_imports_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from holomimo.cli import main\n"
            f"assert main(['eigen-report', 'fig1_desk', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=False
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("grid, index", [([0.0, 4000.0], 1), ([-4000.0, 0.0], 0)])
    def test_extreme_snr_exits_1(self, tmp_path, capsys, grid, index):
        path = write_config(tmp_path, isotropic_payload(snr_grid_db=grid))
        code = main(["nmse-sweep", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"snr_grid_db[{index}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("eigen-report", {"models": ["exact", "approx"]}),
            ("nmse-sweep", {"correlation_model": "approx"}),
        ],
    )
    def test_approx_with_specular_cluster_exits_1(self, tmp_path, capsys, command, overrides):
        payload = clustered_payload(**overrides)
        payload["scattering"]["clusters"][0]["specular"] = True
        path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        code = main([command, str(path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("holomimo: error:") and "specular" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_integer_too_large_for_a_float_exits_1(self, tmp_path):
        # json.loads keeps 1e400 written as an integer exact; float() of it overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(isotropic_payload(beta=10**400)))
        result = subprocess.run(
            [sys.executable, "-m", "holomimo", "eigen-report", str(path), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("holomimo: error: beta")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["eigen-report", "export-matrix"])
    @pytest.mark.parametrize(
        "arguments, message",
        [
            pytest.param(config_is_a_directory, "cannot read config", id="config_dir"),
            pytest.param(config_is_not_utf8, "cannot read config", id="config_latin1"),
            pytest.param(out_is_a_file, "cannot write outputs", id="out_file"),
            pytest.param(out_under_a_file, "cannot write outputs", id="out_under_file"),
            pytest.param(stem_with_nul, "output_stem", id="stem_nul"),
            pytest.param(stem_too_long, "cannot write outputs", id="stem_300_chars"),
        ],
    )
    def test_unusable_input_or_output_path_exits_1(
        self, tmp_path, capsys, command, arguments, message
    ):
        # one error line instead of a traceback; an unwritable directory is
        # not covered, because the tests may run as root
        code = main([command, *arguments(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("holomimo: error:") and message in err
        assert len(err.splitlines()) == 1
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("spread_deg", [0.02, 0.005])
    def test_unresolvable_narrow_lobe_exits_2(self, tmp_path, capsys, interval_guard, spread_deg):
        # 0.02 degrees used to bisect until the process was OOM-killed; 0.005
        # degrees used to drop the specular cluster and exit 0
        payload = clustered_payload()
        scattering = payload["scattering"]
        scattering["sigma_azimuth_deg"] = scattering["sigma_elevation_deg"] = spread_deg
        scattering["clusters"][1]["specular"] = True
        path = write_config(tmp_path, payload)
        code = main(["eigen-report", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("holomimo: error:") and len(err.splitlines()) == 1
        assert f"spread {spread_deg:g}" in err and '"specular": true' in err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_allocation_beyond_the_machine_exits_1(self, tmp_path, capsys):
        # 7 SNRs x 4 estimators x 1e12 trials of float64 errors: 204 TiB, more
        # than any address space, so the allocator refuses it at once
        payload = isotropic_payload(trials=10**12)
        del payload["snr_grid_db"]
        path = write_config(tmp_path, payload)
        code = main(["nmse-sweep", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("holomimo: error: out of memory:") and len(err.splitlines()) == 1
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, preset",
        [("eigen-report", name) for name in ("fig1_desk", "fig2_desk", "fig3_desk", "fig4_desk")]
        + [("nmse-sweep", "fig1_desk")],
    )
    def test_embedded_config_reruns_to_the_same_bytes(self, tmp_path, capsys, command, preset):
        # every artifact records the config it was built from: running that
        # record again must reproduce each file byte for byte
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, preset, "--out", str(first)]) == 0
        summary = "eigen_summary.json" if command == "eigen-report" else "nmse.json"
        record = json.loads((first / f"{preset}_{summary}").read_text())["config"]
        config = write_config(tmp_path, record, name="record.json")
        assert main([command, str(config), "--out", str(second)]) == 0
        capsys.readouterr()
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

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

    @pytest.mark.parametrize("entry", ["import holomimo", "from holomimo.cli import main"])
    @pytest.mark.parametrize("user_value", [None, "28"], ids=["unset", "user-set"])
    def test_openblas_thread_timeout_is_set_before_numpy_loads(self, entry, user_value):
        # OpenBLAS reads the variable once, as numpy loads it; a sys.meta_path
        # probe notes its value at the first lookup of numpy
        script = (
            "import os, sys\n"
            "seen = []\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Probe())\n"
            f"{entry}\n"
            "print(seen)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if user_value is not None:
            assert user_value != holomimo._OPENBLAS_THREAD_TIMEOUT  # else the case shows nothing
            env["OPENBLAS_THREAD_TIMEOUT"] = user_value
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=False
        )
        assert result.returncode == 0, result.stderr
        expected = holomimo._OPENBLAS_THREAD_TIMEOUT if user_value is None else user_value
        assert result.stdout.splitlines()[-1] == repr([expected])
