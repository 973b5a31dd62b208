"""Command-line harness.

Subcommands map one-to-one onto the harness runs:

  holomimo eigen-report  CONFIG [--out DIR] [--threads N] [--seed S] [--stem NAME]
  holomimo nmse-sweep    CONFIG [--out DIR] [--threads N] [--seed S] [--stem NAME]
  holomimo approx-validate CONFIG [--out DIR] [--seed S] [--stem NAME]
  holomimo export-matrix CONFIG [--out DIR] [--csv] [--seed S] [--stem NAME]

CONFIG is a JSON file path or the name of a packaged preset (e.g.
"fig2_desk"). Exit codes: 0 success, 1 configuration or usage error,
2 numerical failure (quadrature self-check, non-PSD input, invalid oracle).
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import load_config
from .errors import AccuracyError, ConfigurationError, NumericalError, OracleInvalidError
from .harness import (
    run_approx_validation,
    run_eigen_report,
    run_export_matrix,
    run_nmse_sweep,
)


def preset_names() -> list[str]:
    """Names of the packaged example configurations."""
    preset_dir = resources.files("holomimo") / "presets"
    return sorted(p.name[: -len(".json")] for p in preset_dir.iterdir() if p.name.endswith(".json"))


def resolve_config_path(argument: str) -> Path:
    """Resolve a CLI config argument to a real file: path first, then preset name."""
    path = Path(argument)
    if path.exists():
        return path
    if "/" not in argument and "\\" not in argument:
        preset = resources.files("holomimo") / "presets" / f"{argument}.json"
        if preset.is_file():
            return Path(str(preset))
    raise ConfigurationError(
        f"config not found: {argument} (packaged presets: {', '.join(preset_names())})"
    )


def _add_common_arguments(parser: argparse.ArgumentParser, threads: bool = True) -> None:
    parser.add_argument("config", help="JSON config path or packaged preset name")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--stem", default=None, help="override the output filename stem")
    if threads:
        parser.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility (must be >= 1); changes neither results nor speed",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holomimo",
        description="Spatial correlation and channel estimation for holographic planar arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eigen = sub.add_parser("eigen-report", help="eigenvalue spectra and rank metrics")
    _add_common_arguments(eigen)

    sweep = sub.add_parser("nmse-sweep", help="Monte Carlo + analytic NMSE over the SNR grid")
    _add_common_arguments(sweep)

    validate = sub.add_parser(
        "approx-validate", help="compare the closed-form clustered model against quadrature"
    )
    _add_common_arguments(validate, threads=False)

    export = sub.add_parser("export-matrix", help="write the correlation matrix container")
    _add_common_arguments(export, threads=False)
    export.add_argument("--csv", action="store_true", help="also write the CSV view")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the latter
        # into the configuration-error code.
        return 0 if exc.code in (0, None) else 1

    try:
        config_path = resolve_config_path(args.config)
        config = load_config(config_path, seed_override=args.seed, stem_override=args.stem)
        if getattr(args, "threads", 1) < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")

        if args.command == "eigen-report":
            _, paths = run_eigen_report(config, args.out, threads=args.threads)
        elif args.command == "nmse-sweep":
            _, paths = run_nmse_sweep(config, args.out, threads=args.threads)
        elif args.command == "approx-validate":
            _, paths = run_approx_validation(config, args.out)
        else:
            _, paths = run_export_matrix(config, args.out, write_csv=args.csv)
    except ConfigurationError as exc:
        print(f"holomimo: error: {exc}", file=sys.stderr)
        return 1
    except (AccuracyError, NumericalError, OracleInvalidError) as exc:
        print(f"holomimo: error: {exc}", file=sys.stderr)
        return 2

    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
