"""The benchmark's workloads: one CLI command each, with its inputs and checks.

All three run single-process with the CLI's default `--threads 1` and the
BLAS threading users get by default. They stress different layers:

* sweep_fig2: the packaged fig2_desk sweep (M=1024, 7 SNRs x 500 trials,
  4 estimators), the paper's headline figure; mostly Monte Carlo.
* eigen_m1600: eigen-report on a generated 40x40, quarter-wavelength
  clustered scene; mostly eigendecomposition, no Monte Carlo.
* export_m4096: export-matrix on the same scene at 64x64; matrix assembly
  and the container write, no eigendecomposition or Monte Carlo.

The workload seed feeds the scene generator and the CLI `--seed`; the program
only ever sees the generated JSON (or, for sweep_fig2, the packaged preset).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from holomimo import ExperimentConfig, load_config
from holomimo.cli import resolve_config_path

import checks


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; `scene_side` set means a generated m x m scene.

    `isotropic_ranks` is the (effective, numerical) rank pair eigen-report
    must find for the isotropic model; it depends on the geometry alone.
    """

    name: str
    command: str
    scene_side: int | None
    isotropic_ranks: tuple[int, int] | None = None

    def prepare(self, work_dir: Path, seed: int) -> tuple[str, ExperimentConfig]:
        """Write the workload's config; returns (CONFIG argument, resolved config)."""
        if self.scene_side is None:
            argument = "fig2_desk"
        else:
            preset = resources.files("holomimo") / "presets" / "fig2_desk.json"
            raw = json.loads(preset.read_text())
            raw["geometry"].update(m_h=self.scene_side, m_v=self.scene_side)
            raw["scattering"]["generate"]["seed"] = seed
            raw["models"] = ["isotropic", "exact"]
            raw["output_stem"] = self.name
            path = work_dir / f"{self.name}.json"
            path.write_text(json.dumps(raw, indent=2))
            argument = str(path)
        return argument, load_config(resolve_config_path(argument), seed_override=seed)

    def cli_arguments(self, config_argument: str, out_dir: Path, seed: int) -> list[str]:
        return [self.command, config_argument, "--out", str(out_dir), "--seed", str(seed)]

    def artifact_names(self, config: ExperimentConfig) -> list[str]:
        stem = config.output_stem
        if self.command == "nmse-sweep":
            return [f"{stem}_nmse.csv", f"{stem}_nmse.json"]
        if self.command == "eigen-report":
            spectra = [f"{stem}_spectrum_{model}.csv" for model in config.models]
            return spectra + [f"{stem}_eigen_summary.json"]
        return [f"{stem}_{config.correlation_model}.hmrc"]

    def check(self, paths: list[Path], config: ExperimentConfig, scratch: Path) -> None:
        """Run the workload's output check; malformed artifacts fail it too."""
        try:
            if self.command == "nmse-sweep":
                checks.check_sweep(paths, config)
            elif self.command == "eigen-report":
                checks.check_eigen(paths, config, self.isotropic_ranks)
            else:
                checks.check_export(paths, config, scratch)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise checks.CheckFailed(f"malformed artifact: {exc!r}") from exc


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_fig2", "nmse-sweep", None),
        Workload("eigen_m1600", "eigen-report", 40, isotropic_ranks=(483, 753)),
        Workload("export_m4096", "export-matrix", 64),
    )
}
