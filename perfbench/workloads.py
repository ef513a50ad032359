"""Workloads of the stforecast benchmark and the session that runs one.

A session is one caller in one process, closed loop (each call starts when
the previous one returns), doing what a user of the package does. It sets up
(reads the signal and edge CSVs through ``data.load_dataset`` and builds a
``PipelineContext``, as the CLI does), then repeats a cycle:

1. one ``tuning.tune_spsa`` call on the validation split;
2. one ``pipeline.evaluate`` call on the next ``BATCH_SIZE`` test windows;
3. the same windows again, one by one, through ``pipeline.run_forecast``.

The first cycles cover the evenly spaced test windows of acceptance
criterion 10; their forecasts give the accuracy metrics. Untraced runs keep
cycling over further windows until the time budget is spent, so every
metric gets samples from the whole run. Forecasts use the untuned model, so
their accuracy depends on the data alone and, at seed 0 on desk scale,
reproduces criterion 10; the tuner's result is scored by its best validation
Huber loss.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from stforecast import data, pipeline, tuning
from stforecast.config import HeadSettings, LayerSettings, PipelineConfig

AGREEMENT_TOL = 1e-10  # batch and window-by-window forecasts must agree to this
BATCH_SIZE = 2  # windows per pipeline.evaluate call; small, so each run gets many calls
ACCEPTANCE_SEED = 0
ACCEPTANCE_MARGIN = 0.10  # acceptance criterion 10: desk margin over persistence


@dataclass(frozen=True)
class Workload:
    stations: int
    steps: int
    setup_reps: int
    accuracy_windows: int  # evenly spaced test windows the accuracy is taken on
    tune_windows: int  # validation windows each one-iteration tune call evaluates
    reference: tuple  # Clock kernel: (system size, steps, idle-core seconds)
    blocks: int | None = None  # None keeps the PipelineConfig default (5 x 25 x 4)
    layers: int | None = None
    heads: int | None = None
    acceptance_gate: bool = False  # margin >= 0.10 at seed 0, as criterion 10 asks

    def config(self) -> PipelineConfig:
        cfg = PipelineConfig()
        if self.blocks is not None:
            cfg.layers = LayerSettings(blocks=self.blocks, layers=self.layers)
        if self.heads is not None:
            cfg.heads = HeadSettings(count=self.heads)
        return cfg


WORKLOADS = {
    # The acceptance bar: each test window is its own solve, and per-call
    # dispatch, not the sparse kernel, dominates the solver.
    "desk-forecast": Workload(
        stations=20, steps=2000, setup_reps=15, accuracy_windows=12,
        tune_windows=2, reference=(360, 1000, 0.014), acceptance_gate=True,
    ),
    # 18 000-node systems: the sparse kernel is about half of CG time, and
    # set-up is dominated by the dense eigenmap and the O(N*E) skeleton scan.
    "city-1000": Workload(
        stations=1000, steps=200, setup_reps=5, accuracy_windows=8,
        tune_windows=1, reference=(18000, 40, 0.016), blocks=2, layers=25, heads=1,
    ),
    # Tiny scale for the smoke check; not a benchmark workload.
    "smoke": Workload(
        stations=4, steps=120, setup_reps=2, accuracy_windows=2,
        tune_windows=1, reference=(72, 200, 0.002), blocks=1, layers=2, heads=1,
    ),
}


def prepare_inputs(name: str, seed: int, signals_path: str, edges_path: str):
    """Write the seeded synthetic signal and road network as CSV."""
    wl = WORKLOADS[name]
    table, pg = data.generate_synthetic(wl.stations, wl.steps, seed)
    data.write_signal_csv(table, signals_path)
    data.write_edges_csv(pg, edges_path)


def set_up(spec: data.DatasetSpec, cfg: PipelineConfig):
    """CSV files on disk to a ready context, as the CLI does it."""
    splits, pg, std = data.load_dataset(spec)
    stamps = splits.train[0].timestamps
    interval = float(stamps[1] - stamps[0])
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=std, interval=interval)
    return splits, pg, std, interval, ctx


class Clock:
    """Times operations in reference seconds, against a kernel run between them.

    The host's speed drifts by up to 2x within tens of seconds, and whole
    runs can fall in a slow period, because other tenants share its cores;
    wall seconds of identical runs spread by 50 % or more. So every timed
    operation is followed by one run of a fixed reference kernel with the
    character of the workload's hot loop (fixed-step CG iterations on a
    random sparse system of the workload's size, no stforecast code), and the
    operation is reported in reference seconds: its wall time divided by the
    mean time of the kernel runs just before and just after it (averaging
    more neighbours tracked the drift worse in ten-run trials), times the
    kernel's time on an idle core of the 2-core host the benchmark was
    defined on. On an idle host reference seconds equal wall seconds; under
    contention they stay put while wall seconds drift.
    """

    def __init__(self, size: int, steps: int, nominal_s: float):
        rng = np.random.default_rng(20250513)
        m = sp.random(size, size, density=8.0 / size, format="csr", random_state=rng)
        self._matrix = (0.05 * (m + m.T) + sp.identity(size)).tocsr()
        self._rhs = rng.standard_normal(size)
        self._steps = steps
        self.nominal_s = nominal_s
        self.reference_s: list[float] = []
        self._reference()  # warm-up, not recorded
        self.reference_s.clear()
        self._reference()

    def _reference(self):
        t0 = time.perf_counter()
        x = np.zeros_like(self._rhs)
        r = self._rhs.copy()
        p = r.copy()
        for _ in range(self._steps):
            ap = self._matrix @ p
            x = x + 0.05 * p
            r = r - 0.05 * ap
            if not np.all(np.isfinite(x)):
                raise RuntimeError("reference kernel diverged")
            p = r + 0.05 * p
        self.reference_s.append(time.perf_counter() - t0)

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return its result and the sample (wall seconds, position)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        position = len(self.reference_s)
        self._reference()
        return result, (elapsed, position)

    def reference_seconds(self, sample) -> float:
        elapsed, position = sample
        local = 0.5 * (self.reference_s[position - 1] + self.reference_s[position])
        return elapsed / local * self.nominal_s


@dataclass
class Session:
    """Raw measurements of one session, plus its operation accounting.

    Timed operations are (wall seconds, position) samples of the session's Clock.
    """

    setup: list = field(default_factory=list)  # one per set-up
    tune: list = field(default_factory=list)  # one per tune call
    evaluate: list = field(default_factory=list)  # one per evaluate call, per window
    forecast: list = field(default_factory=list)  # one per window forecast alone
    val_huber_best: float = float("nan")
    accepted_pairs: int = 0  # SPSA iterations whose candidate pair was accepted
    rmse_ratio: float = float("nan")
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def rmse_margin(self) -> float:
        return 1.0 - self.rmse_ratio

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)


def _forecast_problem(pred, n_stations: int, horizon: int) -> str | None:
    pred = np.asarray(pred)
    if pred.shape != (n_stations, horizon):
        return f"forecast shape {pred.shape}, expected {(n_stations, horizon)}"
    if not np.all(np.isfinite(pred)):
        return "forecast has non-finite values"
    return None


def run_session(name: str, spec: data.DatasetSpec, seconds: float, seed: int,
                clock: Clock, fill: bool = True) -> Session:
    """Run one session; ``fill`` keeps cycling until ``seconds`` have passed.

    Set-ups after the first are spread over the cycles, so that their median
    does not rest on the host's speed at one moment.
    """
    wl = WORKLOADS[name]
    cfg = wl.config()
    horizon = cfg.data.horizon
    out = Session()

    def timed_setup():
        out.attempted += 1
        result, sample = clock.time(set_up, spec, cfg)
        out.setup.append(sample)
        return result

    splits, pg, std, interval, ctx = timed_setup()
    n = pg.n_stations
    accuracy = pipeline.evenly_spaced_subset(splits.test, wl.accuracy_windows)
    windows = accuracy
    if fill:
        # further windows for timing only: the rest of the test split, then the
        # validation windows the tuner does not use
        tuned = pipeline.evenly_spaced_subset(splits.val, wl.tune_windows)
        taken = {id(s) for s in accuracy + tuned}
        windows = accuracy + [s for s in splits.test + splits.val if id(s) not in taken]

    def tune_call():
        out.attempted += 1
        try:
            (_tuned, strace), sample = clock.time(
                tuning.tune_spsa, cfg, pg, splits.val, standardizer=std,
                iterations=1, eval_samples=wl.tune_windows, interval=interval,
            )
        except Exception:  # a failing operation is counted, and the run goes on
            out.fail("tune raised:\n" + traceback.format_exc())
            return
        out.tune.append(sample)
        best = strace.best_losses[-1]
        out.accepted_pairs += sum(not it["rejected"] for it in strace.iterations)
        if not np.isfinite(best):
            out.fail("tune: best validation loss is non-finite")
        elif not strace.best_is_monotone():
            out.fail("tune: best loss is not monotone over iterations")
        else:
            out.val_huber_best = float(best)

    def evaluate_batch(first, group) -> list:
        out.attempted += len(group)
        try:
            report, (elapsed, position) = clock.time(pipeline.evaluate, group, ctx)
        except Exception:
            out.failed += len(group)
            out.problems.append("evaluate raised:\n" + traceback.format_exc())
            return [None] * len(group)
        out.evaluate.append((elapsed / len(group), position))
        preds = []
        for i, pred in enumerate(report["predictions"], start=first):
            problem = _forecast_problem(pred, n, horizon)
            if problem:
                out.fail(f"batch window {i}: {problem}")
            preds.append(None if problem else pred)
        return preds

    def forecast_one(i, sample, reference):
        out.attempted += 1
        try:
            pred, timing = clock.time(pipeline.run_forecast, sample, ctx)
        except Exception:
            out.fail(f"window {i} raised:\n" + traceback.format_exc())
            return
        out.forecast.append(timing)
        problem = _forecast_problem(pred, n, horizon)
        if problem is None and reference is not None:
            gap = float(np.max(np.abs(pred - reference)))
            if not gap <= AGREEMENT_TOL:
                problem = f"differs from the batch forecast by {gap:.3e}"
        if problem:
            out.fail(f"window {i}: {problem}")

    # warm-up: first-call costs are paid once per process, before any timing
    pipeline.run_forecast(windows[0], ctx)

    start = time.perf_counter()
    batch_preds = []
    for first in range(0, len(windows), BATCH_SIZE):
        if first >= len(accuracy) and time.perf_counter() - start >= seconds:
            break
        group = windows[first : first + BATCH_SIZE]
        tune_call()
        preds = evaluate_batch(first, group)
        batch_preds += preds
        for i, (sample, pred) in enumerate(zip(group, preds), start=first):
            forecast_one(i, sample, pred)
        if len(out.setup) < wl.setup_reps:
            timed_setup()
    while len(out.setup) < wl.setup_reps:
        timed_setup()

    acc_preds = batch_preds[: len(accuracy)]
    if all(p is not None for p in acc_preds):
        # the RMSE pipeline.evaluate would report for all accuracy windows at once
        targets = np.concatenate([s.target for s in accuracy], axis=1)
        rmse = pipeline.forecast_metrics(np.concatenate(acc_preds, axis=1), targets)[0]
        base = np.concatenate([pipeline.persistence_forecast(s) for s in accuracy], axis=1)
        out.rmse_ratio = rmse / pipeline.forecast_metrics(base, targets)[0]
        if wl.acceptance_gate and seed == ACCEPTANCE_SEED and not (
            out.rmse_margin >= ACCEPTANCE_MARGIN
        ):
            out.fail(f"rmse margin {out.rmse_margin:.4f} below {ACCEPTANCE_MARGIN}")
    return out


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


if __name__ == "__main__":
    # python3 perfbench/workloads.py <workload> <seed> <signals.csv> <edges.csv>
    prepare_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
