"""Dataset ingestion, window cutting, and synthetic data generation.

Signal tables are CSV with a ``timestamp`` column followed by one column per
station (``s0, s1, ...``). Values round-trip bit-exactly through repr. Empty
cells are read as NaN but rejected when windows are cut: gaps in observed
history are an unsupported case, surfaced as errors rather than imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from .graphs import PhysicalGraph, load_road_network
from .pipeline import Sample, Standardizer


class ParseError(ValueError):
    """Input file failed validation; message names file/line/column."""


@dataclass(eq=False)
class SignalTable:
    timestamps: np.ndarray  # (T,) int64 seconds, ascending, uniform interval
    values: np.ndarray  # (T, N) float64; NaN marks missing input cells

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and value rows disagree")
        if len(self.timestamps) >= 2:
            gaps = np.diff(self.timestamps)
            if np.any(gaps <= 0):
                raise ValueError("timestamps must be strictly ascending")
            if len(set(gaps.tolist())) != 1:
                raise ValueError("sampling interval is not uniform")

    @property
    def interval(self) -> float:
        if len(self.timestamps) < 2:
            return 1.0
        return float(self.timestamps[1] - self.timestamps[0])

    @property
    def n_stations(self) -> int:
        return self.values.shape[1]


def write_signal_csv(table: SignalTable, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"s{i}" for i in range(table.n_stations)])
        for ts, row in zip(table.timestamps, table.values):
            writer.writerow([int(ts)] + [repr(float(v)) for v in row])


def read_signal_csv(path) -> SignalTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0].strip() != "timestamp":
            raise ParseError(f"{path}:1: first column must be 'timestamp'")
        n_stations = len(header) - 1
        if n_stations < 1:
            raise ParseError(f"{path}:1: no station columns")
        timestamps, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_stations + 1:
                raise ParseError(
                    f"{path}:{lineno}: expected {n_stations + 1} columns, got {len(row)}"
                )
            try:
                timestamps.append(int(row[0]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column 1: bad timestamp {row[0]!r}") from None
            vals = []
            for col, cell in enumerate(row[1:], start=2):
                cell = cell.strip()
                if cell == "":
                    vals.append(math.nan)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: column {col}: non-numeric value {cell!r}"
                    ) from None
            rows.append(vals)
    try:
        return SignalTable(np.asarray(timestamps, dtype=np.int64), np.asarray(rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_edges_csv(pg: PhysicalGraph, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "cost"])
        for i, j, cost in pg.edges:
            writer.writerow([i, j, repr(float(cost))])


@dataclass
class DatasetSpec:
    signal_path: str
    edges_path: str
    stride: int = 3
    ratios: tuple = (0.6, 0.2, 0.2)
    horizon: int = 6
    history: int = 12

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


@dataclass
class DatasetSplits:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def cut_windows(table: SignalTable, history: int, horizon: int, stride: int) -> list[Sample]:
    """Sliding windows of length history+horizon at the given stride."""
    window = history + horizon
    n_steps = len(table.timestamps)
    if window > n_steps:
        return []
    samples = []
    for start in range(0, n_steps - window + 1, stride):
        chunk = table.values[start : start + window]
        if np.isnan(chunk).any():
            t_bad, s_bad = np.argwhere(np.isnan(chunk))[0]
            raise ParseError(
                f"missing value at timestamp {table.timestamps[start + t_bad]} "
                f"station s{s_bad}; gaps are unsupported"
            )
        samples.append(
            Sample(
                observed=chunk[:history].T.copy(),
                target=chunk[history:].T.copy(),
                timestamps=table.timestamps[start : start + window].copy(),
            )
        )
    return samples


def split_counts(n: int, ratios) -> tuple[int, int, int]:
    """Apportion n windows to train/val/test by largest remainder (ties go
    to the earlier split), so small counts still respect the ratios."""
    quotas = [n * r for r in ratios]
    counts = [int(math.floor(q)) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    for _ in range(n - sum(counts)):
        pick = max(range(3), key=lambda i: (remainders[i], -i))
        counts[pick] += 1
        remainders[pick] = -1.0
    return tuple(counts)


def split_windows(samples: list[Sample], ratios) -> DatasetSplits:
    n_train, n_val, _ = split_counts(len(samples), ratios)
    return DatasetSplits(
        train=samples[:n_train],
        val=samples[n_train : n_train + n_val],
        test=samples[n_train + n_val :],
    )


def load_dataset(spec: DatasetSpec) -> tuple[DatasetSplits, PhysicalGraph, Standardizer]:
    table = read_signal_csv(spec.signal_path)
    pg = load_road_network(spec.edges_path, n_stations=table.n_stations)
    samples = cut_windows(table, spec.history, spec.horizon, spec.stride)
    splits = split_windows(samples, spec.ratios)
    if splits.train:
        last = splits.train[-1]
        train_end = int(np.searchsorted(table.timestamps, last.timestamps[-1])) + 1
    else:
        train_end = len(table.timestamps)
    standardizer = Standardizer.fit(table.values[:train_end])
    return splits, pg, standardizer


def generate_synthetic(
    n_stations: int,
    steps: int,
    seed: int,
    interval: int = 300,
    period: int = 288,
    noise: float = 2.5,
    phase_spread: float = 0.1,
    ar_coeff: float = 0.3,
    diffusion: float = 0.2,
) -> tuple[SignalTable, PhysicalGraph]:
    """Seeded desk-scale dataset: geometric road graph, station-phase daily
    sinusoids, and graph-diffused AR(1) noise.

    Station phase/amplitude vary smoothly with position, so spatial neighbors
    carry similar signals; the noise keeps a large station-local component
    (lazy diffusion) and decorrelates quickly in time, so graph averaging has
    something real to remove.
    """
    if n_stations < 2:
        raise ValueError("need at least 2 stations")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(size=(n_stations, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    radius = np.sqrt(2.5 / n_stations)
    adj = (dist <= radius) & ~np.eye(n_stations, dtype=bool)
    # union with the MST so the road graph is always connected
    mst = minimum_spanning_tree(sp.csr_matrix(dist + np.eye(n_stations))).toarray() > 0
    adj |= mst | mst.T
    edges = tuple(
        (i, j, float(dist[i, j]))
        for i in range(n_stations)
        for j in range(i + 1, n_stations)
        if adj[i, j]
    )
    pg = PhysicalGraph(n_stations, edges)

    t = np.arange(steps)
    base = 45.0 + 15.0 * (pos[:, 0] + pos[:, 1]) / 2.0
    amp = 8.0 + 4.0 * pos[:, 0]
    phase = phase_spread * pos[:, 1]
    clean = base[None, :] + amp[None, :] * np.sin(
        2.0 * np.pi * t[:, None] / period + phase[None, :]
    )

    values = clean
    if noise > 0:
        deg = np.maximum(adj.sum(axis=1), 1)
        smooth = (1.0 - diffusion) * np.eye(n_stations) + diffusion * adj / deg[:, None]
        eps = noise * rng.standard_normal((steps, n_stations)) @ smooth.T
        ar = np.empty_like(eps)
        ar[0] = eps[0]
        for k in range(1, steps):
            ar[k] = ar_coeff * ar[k - 1] + eps[k]
        values = clean + ar

    table = SignalTable(np.asarray(t * interval, dtype=np.int64), values)
    return table, pg
