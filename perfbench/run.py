#!/usr/bin/env python3
"""Run one stforecast benchmark workload at one seed and report its metrics.

    python3 perfbench/run.py --workload desk-forecast --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
inputs are synthetic CSVs generated from ``--seed`` in a child process, so
the peak memory reported is the workload's own. BLAS is pinned to one thread.

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
with no hooks installed. With ``--trace 1`` it installs timing hooks around
calls into the package, runs the same session without the time-filling
windows, and reports the per-layer metrics derived from the recorded spans.

Stdout carries one line per metric (name, value, unit), an environment line,
and, last, one JSON object with the keys correct, attempted, failed and
metrics. Spans, counts and a full result record go to ``.perfbench/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must be set before numpy loads

import argparse
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

try:
    import stforecast
except ImportError as exc:
    sys.exit(f"perfbench: cannot import stforecast from {ROOT / 'src'}: {exc}")
if Path(stforecast.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"perfbench: stforecast was imported from {stforecast.__file__}, not {ROOT / 'src'}")

import numpy as np
import scipy

import tracer as tr
import workloads as wk
from stforecast import data

# the counts that must repeat exactly between two traced runs at one seed
REPEATING_COUNTS = (
    "graphs.matvec_calls",
    "graphs.matvec_nnz",
    "solver.cg_calls",
    "tuning.loss_evals",
)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "seed": seed,
    }


def prepare(workload: str, seed: int, out_dir: Path) -> data.DatasetSpec:
    """Generate the inputs in a child process so its memory is not counted here."""
    signals, edges = out_dir / "signals.csv", out_dir / "edges.csv"
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(signals), str(edges)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    return data.DatasetSpec(str(signals), str(edges))


def end_to_end(session: wk.Session, clock: wk.Clock) -> dict:
    def seconds(samples):
        return wk.median([clock.reference_seconds(x) for x in samples])

    return {
        "setup_s": (seconds(session.setup), "s"),
        "forecast_window_p50_s": (seconds(session.forecast), "s"),
        "forecast_windows_per_s": (1.0 / seconds(session.evaluate), "1/s"),
        "tune_s_per_iter": (seconds(session.tune), "s"),
        "rmse_ratio": (session.rmse_ratio, "ratio"),
        "val_huber_best": (session.val_huber_best, "huber"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def seconds_of(samples) -> list:
    return [elapsed for elapsed, _position in samples]


def untraced_run(args, spec, clock, problems):
    session = wk.run_session(args.workload, spec, args.seconds, args.seed, clock)
    problems += [f"hook left installed: {h}" for h in tr.installed_hooks()]
    notes = {
        "samples": {
            "setup": len(session.setup),
            "tune_call": len(session.tune),
            "evaluate_call": len(session.evaluate),
            "forecast_window": len(session.forecast),
        },
        "reference_wall_ms_p50": 1000 * wk.median(clock.reference_s),
        "wall": {
            "setup_s": wk.median(seconds_of(session.setup)),
            "forecast_window_p50_s": wk.median(seconds_of(session.forecast)),
            "forecast_window_max_s": max(seconds_of(session.forecast), default=float("nan")),
            "forecast_windows_per_s": 1.0 / wk.median(seconds_of(session.evaluate)),
            "tune_s_per_iter": wk.median(seconds_of(session.tune)),
        },
        "rmse_margin": session.rmse_margin,
    }
    return session, end_to_end(session, clock), notes


def traced_run(args, spec, clock, problems, out_dir: Path):
    wl = wk.WORKLOADS[args.workload]
    # untraced baseline for the tracing overhead: the same windows, same process
    splits, _pg, _std, _interval, ctx = wk.set_up(spec, wl.config())
    windows = stforecast.pipeline.evenly_spaced_subset(splits.test, wl.accuracy_windows)
    untraced = [clock.time(stforecast.pipeline.run_forecast, s, ctx)[1] for s in windows]

    tracer = tr.Tracer()
    with tr.hooked(tracer):
        session = wk.run_session(args.workload, spec, args.seconds, args.seed, clock, fill=False)
    problems += [f"hook left installed: {h}" for h in tr.installed_hooks()]

    metrics = tr.layer_metrics(tracer)
    metrics["tuning.accepted_frac"] = (session.accepted_pairs / len(session.tune), "ratio")
    overhead = (
        wk.median([clock.reference_seconds(x) for x in session.forecast])
        / wk.median([clock.reference_seconds(x) for x in untraced]) - 1.0
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    tracer.save(out_dir / "spans.npz")

    counts = {name: metrics[name][0] for name in REPEATING_COUNTS}
    counts_path = out_dir / "counts.json"
    if counts_path.exists():
        earlier = json.loads(counts_path.read_text())
        for name, value in counts.items():
            if earlier.get(name) != value:
                problems.append(f"count {name} did not repeat: {earlier.get(name)} then {value}")
    counts_path.write_text(json.dumps(counts, indent=1) + "\n")

    forward = metrics["pipeline.forward_s"][0]
    parts = {
        "attention": sum(metrics[k][0] for k in (
            "attention.embed_s", "attention.features_s", "attention.graphs_s")),
        "solver.block": metrics["solver.block_s"][0],
        "pipeline.self": metrics["pipeline.self_s"][0],
    }
    notes = {
        "forward_shares": {k: v / forward for k, v in parts.items()} if forward else {},
        "spans": len(tracer.start),
        "untraced_window_p50_s": wk.median(seconds_of(untraced)),
        "traced_window_p50_s": wk.median(seconds_of(session.forecast)),
    }
    return session, metrics, notes


def declared_metrics(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = [f"hook installed before the run: {h}" for h in tr.installed_hooks()]
    spec = prepare(args.workload, args.seed, out_dir)
    clock = wk.Clock(*wk.WORKLOADS[args.workload].reference)
    if args.trace:
        session, metrics, notes = traced_run(args, spec, clock, problems, out_dir)
        section = "per_layer"
    else:
        session, metrics, notes = untraced_run(args, spec, clock, problems)
        section = "end_to_end"

    declared = declared_metrics(section)
    emitted = {name: unit for name, (_v, unit) in metrics.items()}
    if emitted != declared:
        problems.append(f"emitted metrics {emitted} differ from BENCHMARK.json {declared}")
    for name, (value, unit) in metrics.items():
        if not np.isfinite(value):
            problems.append(f"metric {name} is not finite")
        print(f"{name} {value:.6g} {unit}")
    env = environment(args.seed)
    print(json.dumps({"environment": env, "workload": args.workload, "notes": notes}))
    for problem in session.problems + problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = session.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": float(value) if np.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    samples = {
        "setup": session.setup,
        "tune": session.tune,
        "evaluate_per_window": session.evaluate,
        "forecast_window": session.forecast,
        "reference_s": clock.reference_s,
    }
    record = dict(result, environment=env, notes=notes, samples=samples,
                  problems=session.problems + problems)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
