"""Measurement machinery: child processes, set-up probes, sessions and metrics.

See run.py for the command line and the shape of a benchmark invocation.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
# Every invocation must finish well inside the 180 s the caller allows.
RUN_LIMIT_S = 170.0

SETUP_CODE = (
    "import sys, holomimo\n"
    "from holomimo.cli import resolve_config_path\n"
    "from holomimo.config import load_config\n"
    "load_config(resolve_config_path(sys.argv[1]), seed_override=int(sys.argv[2]))\n"
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], log_stem: Path, timeout_s: float) -> Child:
    """Run one child to completion; wall time spans spawn to reaping.

    Output goes to files rather than pipes so that nothing but the child
    itself sits between spawn and os.wait4, whose rusage covers exactly this
    child (RUSAGE_CHILDREN would fold every earlier child into maxrss).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def _openblas_probe() -> dict:
    """Thread count and core type of the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": _openblas_probe(),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def summarize(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


class Session:
    """One benchmark invocation: its workload, inputs, children and verdicts."""

    def __init__(self, workload, seed: int, seconds: float, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.config_argument, self.config = workload.prepare(work_dir, seed)
        self.names = workload.artifact_names(self.config)
        self.children = 0
        self.failed = 0
        self.reference: list[str] | None = None
        self.reference_problem: str | None = None
        self.artifact_bytes = 0

    def _child(self, argv: list[str], tag: str) -> Child:
        return run_child(argv, self.work_dir / tag, self.deadline - time.monotonic())

    def setup_samples(self) -> list[float]:
        argv = [sys.executable, "-c", SETUP_CODE, self.config_argument, str(self.seed)]
        samples = []
        for k in range(SETUP_SAMPLES):
            child = self._child(argv, f"setup{k}")
            if child.exit_code != 0:
                raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
            samples.append(child.wall_s)
        return samples

    def _verify(self, child: Child, out_dir: Path) -> str | None:
        """Problem with one run's outputs, or None.

        The first run that exits cleanly gets the full output check; every
        later run must reproduce its artifact bytes exactly, and shares its
        verdict.
        """
        if child.exit_code != 0:
            return f"exit code {child.exit_code}: {child.stderr.strip()}"
        try:
            paths = checks.check_listing(child.stdout, out_dir, self.names)
        except checks.CheckFailed as exc:
            return str(exc)
        digests = [checks.file_digest(p) for p in paths]
        if self.reference is None:
            self.reference = digests
            self.artifact_bytes = sum(p.stat().st_size for p in paths)
            try:
                self.workload.check(paths, self.config, self.work_dir)
            except checks.CheckFailed as exc:
                self.reference_problem = str(exc)
        elif digests != self.reference:
            return "artifact bytes differ from the first run of this invocation"
        return self.reference_problem

    def cli_run(self, tag: str, prefix: list[str]) -> Child:
        """Run the workload's command once and verify its outputs."""
        out_dir = self.work_dir / tag
        argv = prefix + self.workload.cli_arguments(self.config_argument, out_dir, self.seed)
        child = self._child(argv, tag)
        self.children += 1
        problem = self._verify(child, out_dir)
        # Artifacts go at once: the export container alone is 134 MB.
        shutil.rmtree(out_dir, ignore_errors=True)
        if problem is not None:
            self.failed += 1
            print(f"{tag}: FAILED: {problem}", file=sys.stderr)
        return child

    def measured_runs(self) -> list[Child]:
        """Untraced runs until their wall times fill `seconds`; at least one.

        A run starts only if another like the last one should still fit.
        """
        runs: list[Child] = []
        spent = 0.0
        while True:
            runs.append(self.cli_run(f"run{len(runs)}", [sys.executable, "-m", "holomimo"]))
            spent += runs[-1].wall_s
            if runs[-1].exit_code != 0 or spent + runs[-1].wall_s > self.seconds:
                return runs


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures, summed over spans of the same name."""
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        own[span["name"]] += span["self_s"]
        total[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        for key, value in span["counts"].items():
            counts[key] += value
    mc_s = total["estimation.monte_carlo_nmse"]
    return {
        "cli.self_s": own["cli.main"],
        "config.load_config_s": total["config.load_config"],
        "harness.self_s": sum(v for k, v in own.items() if k.startswith("harness.")),
        "correlation.build_exact_clustered_s": own["correlation.build_exact_clustered"],
        "correlation.build_isotropic_s": total["correlation.build_isotropic"],
        "correlation.matrix_bytes": counts["matrix_bytes"],
        "correlation.correlation_matrix_distance_s": total[
            "correlation.correlation_matrix_distance"
        ],
        "correlation.save_matrix_s": total["correlation.save_matrix"],
        "correlation.load_matrix_s": total["correlation.load_matrix"],
        "scattering.cluster_reference_masses_s": total["scattering.cluster_reference_masses"],
        "spectral.eigendecompose_s": total["spectral.eigendecompose"],
        "spectral.eigendecompose_calls": calls["spectral.eigendecompose"],
        "spectral.subspace_containment_residual_s": total["spectral.subspace_containment_residual"],
        "estimation.monte_carlo_nmse_s": mc_s,
        "estimation.monte_carlo_nmse_calls": calls["estimation.monte_carlo_nmse"],
        "estimation.trials_per_s": counts["trials"] / mc_s if mc_s > 0 else 0.0,
        "estimation.analytic_nmse_s": total["estimation.analytic_nmse"],
        "trace.cli_main_s": total["cli.main"],
    }


def benchmark(
    workload, seed: int, seconds: float, trace: bool, work_dir: Path
) -> tuple[dict, dict]:
    """Run one invocation; returns (summary per sampled metric, result object).

    The result reports exactly the metrics BENCHMARK.json lists for the mode:
    `end_to_end` untraced, `per_layer` with tracing.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    session = Session(workload, seed, seconds, work_dir)
    # The checker's read-back of the container is the correlation layer's read path.
    local = tracer.Tracer()
    if trace:
        local.wrap(checks, "load_matrix")
    setup = session.setup_samples()
    runs = session.measured_runs()
    samples: dict[str, list[float]] = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup,
    }
    if trace:
        spans_path = work_dir / "spans.json"
        prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        traced = session.cli_run("traced", prefix)
        spans = json.loads(spans_path.read_text()) if traced.exit_code == 0 else []
        samples["traced_wall_s"] = [traced.wall_s]
        values = layer_metrics(spans + local.to_json())
        wall = statistics.median(samples["wall_s"])
        values["harness.bytes_written"] = session.artifact_bytes
        values["trace_overhead_s"] = traced.wall_s - wall
        # Untraced time past set-up that the traced spans do not cover.
        values["trace.unaccounted_s"] = (
            wall
            - statistics.median(setup)
            - (values["trace.cli_main_s"] - values["config.load_config_s"])
        )
    else:
        values = {name: statistics.median(series) for name, series in samples.items()}
    listed = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": session.failed == 0,
        "attempted": session.children,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return {name: summarize(series) for name, series in samples.items()}, result
