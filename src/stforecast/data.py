"""Dataset ingestion, window cutting, synthetic generation, and every CSV format.

Signal tables are CSV with a ``timestamp`` column followed by one column per
station (``s0, s1, ...``). Values round-trip bit-exactly through repr. Empty
cells are read as NaN but rejected when windows are cut: gaps in observed
history are an unsupported case, surfaced as errors rather than imputed.
Road networks are CSV with header ``from,to,cost``. Both readers vet the header,
then parse the rest of the file with numpy's C parser (``_read_numeric``).
Where that parse fails, as it does on a blank cell or any malformed row, they
re-read the file with one row reader (``_read_csv``), which reads the blank
cell as NaN or names the file and line of the error. Every CSV the package
writes goes through ``write_csv``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from .config import DataSettings
from .graphs import EDGE_DTYPE, EdgeError, PhysicalGraph
from .pipeline import Sample, Standardizer


class ParseError(ValueError):
    """Input file failed validation; message names file/line/column."""


def _read_csv(path, check_header, parse_row) -> tuple[list[str], list[int], list]:
    """The header, and the line and ``parse_row`` value of each data row, of a CSV file.

    The readers call it only where ``_read_numeric`` gives up on a file: for
    errors, which it names by line, and for blank cells. Reads ``path`` as
    UTF-8, vets the header with ``check_header``, skips blank rows and
    rejects a row whose width differs from the header's. A ``ValueError``
    from either callback, malformed CSV and undecodable bytes all become a
    ``ParseError`` prefixed ``path:line:``.
    """
    lines, values, line = [], [], 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            check_header(header)
            end = reader.line_num
            for row in reader:
                # a quoted field may span lines: name the row's first one
                line, end = end + 1, reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                lines.append(line)
                values.append(parse_row(row))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{path}:{line}: {exc}") from None
    return header, lines, values


def _read_numeric(path, check_header, dtype_of) -> np.ndarray | None:
    """The data rows of a CSV file as one structured array, or None to re-read it by rows.

    Vets the header as ``_read_csv`` does, then parses the rest of the file,
    streamed line by line, with one ``np.loadtxt`` call into the structured
    dtype ``dtype_of(header)``. None when that fails or would
    read a row otherwise than ``_read_csv``: a bad header, no data rows, a
    row of the wrong width, a blank, quoted or non-numeric cell, a number
    numpy reads only with a warning (``"1.0"`` as an integer under numpy 1.x),
    a cell ``csv`` would refuse as too long, or an ASCII control character
    that numpy but not ``int``/``float`` strips as whitespace.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            header = next(csv.reader(fh), None)
            if header is None:
                return None
            check_header(header)
            rows = np.loadtxt(_plain_lines(fh), dtype=dtype_of(header), delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, csv.Error, Warning):
        return None
    return rows if len(rows) else None


def _plain_lines(fh):
    """The lines of ``fh``; ValueError at one that numpy and ``_read_csv`` may read differently."""
    limit = csv.field_size_limit()
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("control character")
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise ValueError("field larger than field limit")
        yield line


def _not_utf8(path) -> ParseError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8")
    return ParseError(f"{path}: not UTF-8")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows``; floats are written as their repr, so they round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    header = ["timestamp"] + [f"s{i}" for i in range(table.n_stations)]
    rows = ([int(ts), *row] for ts, row in zip(table.timestamps, table.values.tolist()))
    write_csv(path, header, rows)


def _check_signal_header(header: list[str]) -> None:
    if not header or header[0].strip() != "timestamp":
        raise ValueError("first column must be 'timestamp'")
    if len(header) < 2:
        raise ValueError("no station columns")


def _signal_row(row: list[str]) -> tuple[int, list[float]]:
    try:
        stamp = int(row[0])
    except ValueError:
        raise ValueError(f"column 1: bad timestamp {row[0]!r}") from None
    if not -(2**63) <= stamp < 2**63:
        raise ValueError(f"column 1: timestamp {row[0]!r} does not fit in 64 bits")
    try:
        return stamp, [float(cell) for cell in row[1:]]
    except ValueError:  # a blank or bad cell: go cell by cell to read NaN or name it
        return stamp, [_signal_cell(col, cell) for col, cell in enumerate(row[1:], start=2)]


def _signal_cell(col: int, cell: str) -> float:
    cell = cell.strip()
    if cell == "":
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"column {col}: non-numeric value {cell!r}") from None


def _signal_dtype(header: list[str]) -> np.dtype:
    return np.dtype([("timestamp", np.int64), ("values", np.float64, (len(header) - 1,))])


def read_signal_csv(path) -> SignalTable:
    rows = _read_numeric(path, _check_signal_header, _signal_dtype)
    if rows is not None:
        timestamps = np.ascontiguousarray(rows["timestamp"])
        values = np.ascontiguousarray(rows["values"])
    else:
        header, _, rows = _read_csv(path, _check_signal_header, _signal_row)
        if not rows:
            raise ParseError(f"{path}: no data rows")
        timestamps = np.array([stamp for stamp, _ in rows], dtype=np.int64)
        values = np.array([vals for _, vals in rows], dtype=np.float64)
        values = values.reshape(len(rows), len(header) - 1)
    try:
        return SignalTable(timestamps, values)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_edges_csv(pg: PhysicalGraph, path):
    write_csv(path, ["from", "to", "cost"], ((i, j, float(cost)) for i, j, cost in pg.edges))


def _check_edges_header(header: list[str]) -> None:
    if [h.strip() for h in header] != ["from", "to", "cost"]:
        raise ValueError("expected header 'from,to,cost'")


def load_road_network(path, n_stations: int | None = None) -> PhysicalGraph:
    """Read an edge list CSV with header ``from,to,cost`` (0-based station ids).

    ``n_stations`` is the station count, e.g. the signal's column count;
    stations no edge touches are isolated, and an id at or beyond the count
    is rejected. Without it the count is one past the largest id. An edge
    ``PhysicalGraph`` rejects is reported at its line.
    """

    def edge(row: list[str]) -> tuple[int, int, float]:
        i, j, cost = int(row[0]), int(row[1]), float(row[2])
        if n_stations is not None and max(i, j) >= n_stations:
            raise ValueError(f"station {max(i, j)} out of range for {n_stations} stations")
        return i, j, cost

    rows = _read_numeric(path, _check_edges_header, lambda header: EDGE_DTYPE)
    if rows is not None:
        ends = np.maximum(rows["from"], rows["to"])
        if n_stations is None or ends.max() < n_stations:
            try:
                return PhysicalGraph(
                    1 + int(ends.max()) if n_stations is None else n_stations,
                    tuple(rows.tolist()),
                )
            except ValueError:
                pass  # the row reader names the line of the bad edge
    _, lines, edges = _read_csv(path, _check_edges_header, edge)
    if n_stations is None:
        n_stations = 1 + max((max(i, j) for i, j, _ in edges), default=-1)
    try:
        return PhysicalGraph(n_stations, tuple(edges))
    except EdgeError as exc:
        raise ParseError(f"{path}:{lines[exc.index]}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass
class DatasetSpec:
    signal_path: str
    edges_path: str
    data: DataSettings = field(default_factory=DataSettings)


@dataclass
class DatasetSplits:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)
    interval: float = 1.0  # sampling interval in seconds


def cut_windows(table: SignalTable, history: int, horizon: int, stride: int) -> list[Sample]:
    """Sliding windows of length history+horizon at the given stride.

    One gather copies every window at once: window k's observed block, then
    its target block, each C-contiguous, side by side in row k of one array.
    """
    window = history + horizon
    n_steps, n = table.values.shape
    if window > n_steps:
        return []
    starts = np.array(range(0, n_steps - window + 1, stride), dtype=np.int64)
    gaps = np.flatnonzero(np.isnan(table.values).any(axis=1))
    if len(gaps):
        # each window's first row with a gap, if any, is the first gap at or after its start
        first = gaps[np.minimum(np.searchsorted(gaps, starts), len(gaps) - 1)]
        hit = np.flatnonzero((first >= starts) & (first < starts + window))
        if len(hit):
            t_bad = first[hit[0]]
            s_bad = np.flatnonzero(np.isnan(table.values[t_bad]))[0]
            raise ParseError(
                f"missing value at timestamp {table.timestamps[t_bad]} "
                f"station s{s_bad}; gaps are unsupported"
            )
    # flat offset of (station, step) within a window, observed steps first
    offsets = np.arange(n)[:, None] + n * np.arange(window)
    offsets = np.concatenate([offsets[:, :history].ravel(), offsets[:, history:].ravel()])
    blocks = np.take(table.values, n * starts[:, None] + offsets)
    stamps = np.take(table.timestamps, starts[:, None] + np.arange(window))
    split = n * history
    return [
        Sample(
            observed=block[:split].reshape(n, history),
            target=block[split:].reshape(n, horizon),
            timestamps=ts,
        )
        for block, ts in zip(blocks, stamps)
    ]


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


def split_dataset(table: SignalTable, settings: DataSettings) -> tuple[DatasetSplits, Standardizer]:
    """Cut ``table`` into windows, split them in time order and fit the
    standardizer on the span the training windows cover (all of it if none)."""
    samples = cut_windows(table, settings.history, settings.horizon, settings.stride)
    splits = split_windows(samples, settings.ratios)
    splits.interval = table.interval
    if splits.train:
        last = splits.train[-1]
        train_end = int(np.searchsorted(table.timestamps, last.timestamps[-1])) + 1
    else:
        train_end = len(table.timestamps)
    return splits, Standardizer.fit(table.values[:train_end])


def load_dataset(spec: DatasetSpec) -> tuple[DatasetSplits, PhysicalGraph, Standardizer]:
    table = read_signal_csv(spec.signal_path)
    pg = load_road_network(spec.edges_path, n_stations=table.n_stations)
    splits, standardizer = split_dataset(table, spec.data)
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
