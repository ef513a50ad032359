"""Dataset I/O, window cutting, synthetic generation, and the CLI surface."""

import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from stforecast import data as dmod
from stforecast import pipeline, priors, solver, tuning, verify
from stforecast.attention import (
    DegenerateWeightError,
    MetricBank,
    directed_weights,
    undirected_weights,
)
from stforecast.cli import cli_main
from stforecast.config import DataSettings, PipelineConfig
from stforecast.graphs import EDGE_DTYPE, build_spatial_skeleton, build_temporal_skeleton
from stforecast.pipeline import (
    PipelineContext,
    evaluate,
    forecast_metrics,
    run_forecast,
)
from stforecast.solver import NumericFailure


class TestSignalCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = dmod.SignalTable(
            np.arange(20, dtype=np.int64) * 300,
            rng.standard_normal((20, 3)) * 17.3 + 41.0,
        )
        path = tmp_path / "signals.csv"
        dmod.write_signal_csv(table, path)
        back = dmod.read_signal_csv(path)
        assert np.array_equal(back.timestamps, table.timestamps)
        assert np.array_equal(back.values, table.values)  # bit-exact

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0,s1\n0,1.0,2.0\n300,oops,2.0\n")
        with pytest.raises(dmod.ParseError, match=r"signals.csv:3: column 2"):
            dmod.read_signal_csv(path)

    @pytest.mark.parametrize("row", ["300,nan,{}", "300,,{}"], ids=["numpy-reads", "blank-cell"])
    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_infinite_cell_names_location(self, tmp_path, cell, row):
        # on either read route, as the edges reader names an infinite cost;
        # the nan and blank cells before it stay gaps
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0,s1\n0,1.0,2.0\n" + row.format(cell) + "\n")
        want = f"{path}:3: column 3: infinite value {cell!r}"
        with pytest.raises(dmod.ParseError, match=f"^{re.escape(want)}$"):
            dmod.read_signal_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0,s1\n0,1.0,2.0\n300,1.0\n")
        with pytest.raises(dmod.ParseError, match="signals.csv:3"):
            dmod.read_signal_csv(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0\n300,1.0\n0,2.0\n")
        with pytest.raises(dmod.ParseError, match="ascending"):
            dmod.read_signal_csv(path)

    def test_nonuniform_interval_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0\n0,1.0\n300,2.0\n500,3.0\n")
        with pytest.raises(dmod.ParseError, match="uniform"):
            dmod.read_signal_csv(path)

    def test_missing_cell_read_as_nan_then_rejected_at_cut(self, tmp_path):
        path = tmp_path / "signals.csv"
        rows = "\n".join(f"{t * 300},1.0,2.0" for t in range(25))
        rows = rows.replace("6000,1.0", "6000,", 1)  # blank one cell
        path.write_text("timestamp,s0,s1\n" + rows + "\n")
        table = dmod.read_signal_csv(path)
        assert np.isnan(table.values).sum() == 1
        with pytest.raises(dmod.ParseError, match="missing value at timestamp 6000"):
            dmod.cut_windows(table, 12, 6, 3)


class TestWindowsAndSplits:
    def test_window_count_formula(self):
        table = dmod.SignalTable(
            np.arange(100, dtype=np.int64) * 300, np.zeros((100, 2))
        )
        samples = dmod.cut_windows(table, 12, 6, 3)
        assert len(samples) == (100 - 18) // 3 + 1 == 28

    def test_split_28_is_17_6_5(self):
        assert dmod.split_counts(28, (0.6, 0.2, 0.2)) == (17, 6, 5)

    def test_single_window_goes_to_train(self):
        table = dmod.SignalTable(np.arange(18, dtype=np.int64) * 300, np.zeros((18, 2)))
        samples = dmod.cut_windows(table, 12, 6, 1)
        assert len(samples) == 1
        splits = dmod.split_windows(samples, (0.6, 0.2, 0.2))
        assert (len(splits.train), len(splits.val), len(splits.test)) == (1, 0, 0)

    def test_chronological_order(self):
        table = dmod.SignalTable(
            np.arange(60, dtype=np.int64) * 300,
            np.arange(60, dtype=np.float64)[:, None].repeat(2, axis=1),
        )
        splits = dmod.split_windows(dmod.cut_windows(table, 12, 6, 3), (0.6, 0.2, 0.2))
        last_train = splits.train[-1].timestamps[-1]
        first_val = splits.val[0].timestamps[0]
        assert first_val > last_train - 18 * 300  # windows advance chronologically

    def test_counts_always_sum(self):
        for n in range(0, 50):
            c = dmod.split_counts(n, (0.6, 0.2, 0.2))
            assert sum(c) == n

    @pytest.mark.parametrize(
        "settings,row",
        [({"stride": 20}, 18), ({"ratios": (0.0, 0.5, 0.5)}, 199)],
        ids=["between-strided-windows", "after-the-last-window"],
    )
    def test_gap_in_the_fitted_span_rejected(self, settings, row):
        # no window covers the gap, but the standardizer is fitted over its row
        table = dmod.SignalTable(np.arange(200, dtype=np.int64) * 300, np.ones((200, 3)))
        table.values[row, 1] = np.nan
        covered = {t for s in dmod.cut_windows(table, 12, 6, settings.get("stride", 3))
                   for t in s.timestamps.tolist()}
        assert row * 300 not in covered
        with pytest.raises(dmod.ParseError) as info:
            dmod.split_dataset(table, DataSettings(**settings))
        assert str(info.value) == (f"missing value at timestamp {row * 300} station s1; "
                                   f"gaps are unsupported")

    def test_gap_outside_windows_and_fitted_span_loads(self):
        table = dmod.SignalTable(np.arange(200, dtype=np.int64) * 300, np.ones((200, 3)))
        table.values[199, 1] = np.nan  # after the last window; training ends at row 117
        splits, std = dmod.split_dataset(table, DataSettings(stride=20))
        assert len(splits.train) == 6 and np.all(std.mean == 1.0)


def cut_windows_by_loop(table, history, horizon, stride):
    """Windows one at a time, each checked for gaps before it is copied (the reference)."""
    window = history + horizon
    samples = []
    for start in range(0, len(table.timestamps) - window + 1, stride):
        chunk = table.values[start : start + window]
        if np.isnan(chunk).any():
            t_bad, s_bad = np.argwhere(np.isnan(chunk))[0]
            raise dmod.ParseError(
                f"missing value at timestamp {table.timestamps[start + t_bad]} "
                f"station s{s_bad}; gaps are unsupported"
            )
        samples.append((chunk[:history].T.copy(), chunk[history:].T.copy(),
                        table.timestamps[start : start + window].copy()))
    return samples


class TestCutWindows:
    @given(
        steps=st.integers(1, 40), n=st.integers(1, 5), history=st.integers(1, 12),
        horizon=st.integers(0, 6), stride=st.integers(1, 25),
        gaps=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 4)), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, steps, n, history, horizon, stride, gaps):
        values = np.random.default_rng(steps * 7 + n).standard_normal((steps, n))
        for t, s in gaps:
            values[t % steps, s % n] = np.nan
        table = dmod.SignalTable(np.arange(steps, dtype=np.int64) * 60 + 5, values)
        try:
            want = cut_windows_by_loop(table, history, horizon, stride)
        except dmod.ParseError as exc:
            with pytest.raises(dmod.ParseError) as info:
                dmod.cut_windows(table, history, horizon, stride)
            assert str(info.value) == str(exc)
            return
        got = dmod.cut_windows(table, history, horizon, stride)
        assert len(got) == len(want)
        for sample, (observed, target, stamps) in zip(got, want):
            for mine, ref, source in ((sample.observed, observed, table.values),
                                      (sample.target, target, table.values),
                                      (sample.timestamps, stamps, table.timestamps)):
                # a read-only view of the table, not a copy
                assert not mine.flags.writeable
                assert mine.size == 0 or np.shares_memory(mine, source)
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
                assert mine.tobytes() == ref.tobytes()

    def test_windows_are_views_of_the_table(self):
        table = dmod.SignalTable(np.arange(30, dtype=np.int64) * 300,
                                 np.arange(60.0).reshape(30, 2))
        first, second = dmod.cut_windows(table, 12, 6, 3)[:2]
        assert second.observed[1, 0] == table.values[3, 1] == 7.0
        table.values[3, 1] = -1.0  # the table itself stays writable
        assert first.observed[1, 3] == second.observed[1, 0] == -1.0
        for array in (first.observed, first.target, first.timestamps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert table.values[0, 0] == 0.0 and table.timestamps[0] == 0


class TestLoadDataset:
    def make_files(self, tmp_path, n_stations=3):
        table, pg = dmod.generate_synthetic(n_stations, 120, seed=1, period=24)
        sig = tmp_path / "signals.csv"
        edg = tmp_path / "edges.csv"
        dmod.write_signal_csv(table, sig)
        dmod.write_edges_csv(pg, edg)
        return sig, edg, table

    def test_load_and_standardizer_fit_on_train(self, tmp_path):
        sig, edg, table = self.make_files(tmp_path)
        spec = dmod.DatasetSpec(str(sig), str(edg), data=DataSettings(stride=3, horizon=6, history=12))
        splits, pg, std = dmod.load_dataset(spec)
        assert pg.n_stations == 3
        assert len(splits.train) > 0
        train_end = int(np.searchsorted(table.timestamps, splits.train[-1].timestamps[-1])) + 1
        np.testing.assert_allclose(std.mean, table.values[:train_end].mean(axis=0))

    def test_station_without_edges_is_isolated(self, tmp_path):
        # the station count comes from the signal columns, not the largest edge id
        sig, _, _ = self.make_files(tmp_path)
        sparse = tmp_path / "sparse_edges.csv"
        sparse.write_text("from,to,cost\n0,1,1.0\n")
        splits, pg, std = dmod.load_dataset(dmod.DatasetSpec(str(sig), str(sparse)))
        assert pg.n_stations == 3
        assert pg.edges.tolist() == [(0, 1, 1.0)]
        cfg = PipelineConfig.from_dict({
            "graph": {"k": 1, "window": 2}, "layers": {"blocks": 1, "layers": 2},
            "heads": {"count": 1},
        })
        with pytest.warns(UserWarning, match="2 connected components"):
            ctx = PipelineContext.build(pg, cfg, standardizer=std)
        assert np.all(np.isfinite(run_forecast(splits.test[0], ctx)))

    def test_edge_id_beyond_signal_columns(self, tmp_path):
        sig, _, _ = self.make_files(tmp_path)
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("from,to,cost\n0,1,1.0\n1,3,1.0\n")
        with pytest.raises(dmod.ParseError,
                           match=r"bad_edges\.csv:3: edge \(1,3\) outside station range"):
            dmod.load_dataset(dmod.DatasetSpec(str(sig), str(bad)))


class TestCsvReader:
    """The row reader shared by the signal and road-network formats."""

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_bytes(b"timestamp,s0,s1\n0,1.0,2.0\n300,\xff,2.0\n")
        with pytest.raises(dmod.ParseError, match=r"signals\.csv:3: byte 0xff is not UTF-8"):
            dmod.read_signal_csv(path)

    @pytest.mark.parametrize(
        "read,text",
        [(dmod.read_signal_csv, "timestamp,s0\n0,1.0\n300,{}\n"),
         (lambda path: dmod.load_road_network(path, 3), "from,to,cost\n0,1,1.0\n1,2,{}\n")],
        ids=["signals", "edges"],
    )
    def test_oversized_field_names_file_and_line(self, tmp_path, read, text):
        path = tmp_path / "in.csv"
        path.write_text(text.format("9" * 200_000))
        with pytest.raises(dmod.ParseError, match=r"in\.csv:3: field larger than field limit"):
            read(path)

    def test_timestamp_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0\n0,1.0\n99999999999999999999,2.0\n")
        with pytest.raises(
            dmod.ParseError,
            match=r"signals\.csv:3: column 1: timestamp '99999999999999999999' does not fit",
        ):
            dmod.read_signal_csv(path)

    def test_quoted_field_spanning_lines_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text('timestamp,s0\n0,"1.0\n"\n300,x\n')
        with pytest.raises(dmod.ParseError, match=r"signals\.csv:4: column 2: non-numeric"):
            dmod.read_signal_csv(path)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("0,1,1.0\n1,1,1.0", "3: self-edge at station 1"),
            ("0,1,1.0\n1,2,1.0\n\n1,0,2.0", "5: duplicate edge (1,0)"),
            ("0,1,1.0\n1,2,-1.0", "3: negative cost on edge (1,2)"),
            ("0,1,1.0\n1,2,inf", "3: non-finite cost inf on edge (1,2)"),
            ("0,1,1.0\n-1,2,1.0", "3: edge (-1,2) outside station range"),
        ],
        ids=["self-edge", "duplicate", "negative-cost", "infinite-cost", "negative-id"],
    )
    def test_edge_validation_names_line(self, tmp_path, rows, message):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n" + rows + "\n")
        with pytest.raises(dmod.ParseError) as info:
            dmod.load_road_network(path, n_stations=3)
        assert str(info.value) == f"{path}:{message}"


PAYLOADS = [b"", b" ", b"\xff", b'"', b",", b"\n", b"\r", b"\x00", b"-1", b"0", b"1e999",
            b"nan", b"x", b"99999999999999999999", b"9" * 200_000, b"1.0", b"1_0", b'"1"',
            b"#", b"\r\n", b"\t", b"\x1c", b"-nan", b"+1", b" 2 "]
# a station count above every id of the edge cases and of each payload,
# 99999999999999999999 among them: a file then loads unless it is at fault
ABOVE_EVERY_ID = 10**20
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["byte", "cell", "row"]),
        st.sampled_from(["drop", "duplicate", "insert", "replace"]),
        st.integers(0, 4000),
        st.integers(0, 40),
        st.one_of(st.sampled_from(PAYLOADS), st.binary(max_size=3)),
    ),
    min_size=1,
    max_size=4,
)


def _edit(seq: list, op: str, at: int, item) -> list:
    if op == "insert" or not seq:
        at %= len(seq) + 1
        return seq[:at] + [item] + seq[at:]
    at %= len(seq)
    tail = {"drop": [], "duplicate": [seq[at], seq[at]], "replace": [item]}[op]
    return seq[:at] + tail + seq[at + 1 :]


def _mutate(raw: bytes, mutations) -> bytes:
    """Apply byte, cell (comma-separated) and row (newline-separated) edits in turn."""
    for unit, op, at, within, payload in mutations:
        if unit == "byte":
            raw = b"".join(_edit([raw[k : k + 1] for k in range(len(raw))], op, at, payload))
            continue
        rows = raw.split(b"\n")
        if unit == "row":
            rows = _edit(rows, op, at, payload)
        else:
            r = at % len(rows)
            rows[r] = b",".join(_edit(rows[r].split(b","), op, within, payload))
        raw = b"\n".join(rows)
    return raw


class TestReaderFuzz:
    """Mutated valid files either load or raise a ParseError that starts with the path."""

    TABLE, PG = dmod.generate_synthetic(3, 30, seed=0)
    FUZZ = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def _loads_or_names_path(path, read):
        try:
            read(path)
        except dmod.ParseError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)

    @FUZZ
    @given(mutations=MUTATIONS)
    def test_signal_reader(self, tmp_path, mutations):
        path = tmp_path / "signals.csv"
        dmod.write_signal_csv(self.TABLE, path)
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        self._loads_or_names_path(path, dmod.read_signal_csv)

    @FUZZ
    @given(mutations=MUTATIONS, n_stations=st.sampled_from([ABOVE_EVERY_ID, 3]))
    def test_edge_reader(self, tmp_path, mutations, n_stations):
        path = tmp_path / "edges.csv"
        dmod.write_edges_csv(self.PG, path)
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        self._loads_or_names_path(path, lambda p: dmod.load_road_network(p, n_stations))


def _row_reader_only(read, path):
    """``read(path)`` with the numpy parse switched off: the row reader alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmod, "_read_numeric", lambda *args: None)
        return _outcome(read, path)


def _outcome(read, path):
    """What ``read(path)`` gives, in a form to compare bit for bit: the
    table's or graph's bytes, or the error's type and text."""
    try:
        got = read(path)
    except dmod.ParseError as exc:
        return ("error", str(exc))
    if isinstance(got, dmod.SignalTable):
        return ("table", got.timestamps.dtype.str, got.timestamps.tobytes(),
                got.values.dtype.str, got.values.shape, got.values.tobytes(),
                got.values.flags.c_contiguous)
    return ("graph", got.n_stations, got.edges.dtype, _edge_bytes(got.edges))


def _edge_bytes(edges):
    """The bytes of an edge table; its values where the ids overflow 64 bits
    and it holds Python objects, whose bytes are addresses."""
    return edges.tolist() if edges.dtype.hasobject else edges.tobytes()


def _read_edges(n_stations):
    return lambda path: dmod.load_road_network(path, n_stations)


def _assert_paths_agree(read, path, numpy_path=None):
    """``read`` gives the row reader's result bit for bit, or its error text;
    ``numpy_path`` says whether the numpy parse must have taken the file."""
    calls = []
    numeric = dmod._read_numeric

    def spied(*args):
        calls.append(numeric(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmod, "_read_numeric", spied)
        got = _outcome(read, path)
    assert got == _row_reader_only(read, path)
    if numpy_path is not None:
        assert (calls[0] is not None) == numpy_path, got
    return got


SIGNAL_CASES = {
    # name: (file text, whether numpy parses it; the table may still be rejected)
    "clean": ("timestamp,s0,s1\n0,1.5,-2.0\n300,nan,1e999\n", True),
    "nan-cell": ("timestamp,s0,s1\n0,1.5,-2.0\n300,nan,4e2\n", True),
    "one-row-one-station": ("timestamp,s0\n7,0.1\n", True),
    "crlf": ("timestamp,s0,s1\r\n0,1.5,2\r\n300,3,4\r\n", True),
    "bare-cr": ("timestamp,s0\r0,1.5\r300,3\r", True),
    "padded-and-signed": ("timestamp, s0\n +0 , -1.5 \n300,\t+2\n", True),
    "empty-lines": ("timestamp,s0\n\n0,1\n\n300,2\n\n", True),
    "float-timestamp": ("timestamp,s0\n1.0,1\n", False),
    "exponent-timestamp": ("timestamp,s0\n1e3,1\n", False),
    "blank-cell": ("timestamp,s0,s1\n0,,2\n300,3, \n", False),
    "whitespace-only-row": ("timestamp,s0\n0,1\n   \n300,2\n", False),
    "blank-timestamp": ("timestamp,s0\n,1\n", False),
    "quoted-number": ('timestamp,s0\n0,"1.5"\n300,2\n', False),
    "quoted-timestamp": ('timestamp,s0\n"0",1.5\n', False),
    "comment-line": ("timestamp,s0\n0,1\n# note\n300,2\n", False),
    "hash-cell": ("timestamp,s0\n0,1 # note\n", False),
    "underscore-value": ("timestamp,s0\n0,1_0\n", False),
    "underscore-timestamp": ("timestamp,s0\n1_0,1\n", False),
    "short-row": ("timestamp,s0,s1\n0,1\n", False),
    "long-row": ("timestamp,s0\n0,1,2\n", False),
    "every-row-short": ("timestamp,s0,s1\n0,1\n300,2\n", False),
    "header-only": ("timestamp,s0,s1\n", False),
    "header-and-blank-lines": ("timestamp,s0\n\n\n", False),
    "empty": ("", False),
    "bad-header": ("time,s0\n0,1\n", False),
    "descending": ("timestamp,s0\n300,1\n0,2\n", True),
    "int64-overflow": ("timestamp,s0\n9223372036854775808,1\n", False),
    "int64-edge": ("timestamp,s0\n-9223372036854775808,1\n9223372036854775807,2\n", True),
    "control-space": ("timestamp,s0\n\x1c0,1\n", False),
    "control-space-value": ("timestamp,s0\n0,\x1f1\n", False),
    "unicode-space": ("timestamp,s0\n\u20030,1\xa0\n", True),
    "unicode-digit": ("timestamp,s0\n\u0661,1\n", False),
    "nul": ("timestamp,s0\n0,1\x00\n", False),
    "oversized-field": ("timestamp,s0\n0," + "9" * 200_000 + "\n", False),
    # a line longer than csv's field limit (131 072) whose fields are short
    "long-line": ("timestamp," + ",".join(f"s{i}" for i in range(30000)) + "\n0,"
                  + ",".join(["0.25"] * 30000) + "\n", True),
}


EDGE_CASES = {
    "clean": ("from,to,cost\n0,1,1.5\n1,2,0\n", True),
    "crlf": ("from,to,cost\r\n0,1,1.5\r\n", True),
    "float-id": ("from,to,cost\n0,1.0,1.5\n", False),
    "blank-cost": ("from,to,cost\n0,1,\n", False),
    "quoted-id": ('from,to,cost\n"0",1,1.5\n', False),
    "comment-line": ("from,to,cost\n# roads\n0,1,1.5\n", False),
    "underscore-id": ("from,to,cost\n0,1_0,1.5\n", False),
    "whitespace-only-row": ("from,to,cost\n0,1,1\n \n", False),
    "short-row": ("from,to,cost\n0,1\n", False),
    "header-only": ("from,to,cost\n", False),
    "duplicate": ("from,to,cost\n0,1,1\n\n\n1,0,2\n", True),
    "self-edge": ("from,to,cost\n0,1,1\n2,2,1\n", True),
    "negative-id": ("from,to,cost\n0,1,1\n-1,2,1\n", True),
    "nan-cost": ("from,to,cost\n0,1,nan\n", True),
    "negative-cost": ("from,to,cost\n0,1,-0.5\n", True),
    "id-beyond-count": ("from,to,cost\n0,7,1\n", True),
    "id-beyond-int64": ("from,to,cost\n0,99999999999999999999,1\n", False),
    "control-space-cost": ("from,to,cost\n0,1,1\x1e\n", False),
}


class TestReaderPaths:
    """Both readers parse with numpy first and fall back to the row reader;
    every file gives the row reader's result bit for bit, or its error text."""

    @pytest.mark.parametrize("name", SIGNAL_CASES)
    def test_signal_cases(self, tmp_path, name):
        text, numpy_path = SIGNAL_CASES[name]
        path = tmp_path / "signals.csv"
        path.write_bytes(text.encode())
        _assert_paths_agree(dmod.read_signal_csv, path, numpy_path)

    @pytest.mark.parametrize("n_stations", [None, 3])  # None: ABOVE_EVERY_ID
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_cases(self, tmp_path, name, n_stations):
        text, numpy_path = EDGE_CASES[name]
        path = tmp_path / "edges.csv"
        path.write_bytes(text.encode())
        _assert_paths_agree(_read_edges(n_stations or ABOVE_EVERY_ID), path, numpy_path)

    @pytest.mark.parametrize(
        "read,cases,name",
        [
            (dmod.read_signal_csv, SIGNAL_CASES, "clean"),
            (dmod.read_signal_csv, SIGNAL_CASES, "nan-cell"),
            (dmod.read_signal_csv, SIGNAL_CASES, "blank-cell"),
            (_read_edges(3), EDGE_CASES, "clean"),
            (_read_edges(3), EDGE_CASES, "whitespace-only-row"),
            (_read_edges(3), EDGE_CASES, "blank-cost"),
        ],
        ids=["signals-clean", "signals-nan-cell", "signals-blank-cell", "edges-clean",
             "edges-blank-row", "edges-blank-cost"],
    )
    def test_byte_order_mark_reads_as_without(self, tmp_path, read, cases, name):
        # spreadsheet exports start with one; the same path, so errors compare too
        text, numpy_path = cases[name]
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        plain = _outcome(read, path)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert _assert_paths_agree(read, path, numpy_path) == plain

    def test_clean_files_skip_the_row_reader(self, tmp_path, monkeypatch):
        table, pg = dmod.generate_synthetic(5, 40, seed=3)
        dmod.write_signal_csv(table, tmp_path / "s.csv")
        dmod.write_edges_csv(pg, tmp_path / "e.csv")
        monkeypatch.setattr(dmod, "_read_csv", None)  # calling it would fail
        back = dmod.read_signal_csv(tmp_path / "s.csv")
        assert back.values.tobytes() == table.values.tobytes()
        edges = dmod.load_road_network(tmp_path / "e.csv", 5).edges
        assert edges.dtype == pg.edges.dtype == EDGE_DTYPE
        assert len(edges) > 1 and edges.tobytes() == pg.edges.tobytes()

    def test_parse_warning_falls_back_to_rows(self, tmp_path, monkeypatch):
        # numpy 1.x reads the integer field "1.0" as 1 with a DeprecationWarning
        loadtxt = np.loadtxt

        def lenient(*args, **kwargs):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        path = tmp_path / "signals.csv"
        path.write_text("timestamp,s0\n0,1.5\n")
        monkeypatch.setattr(np, "loadtxt", lenient)
        assert dmod._read_numeric(path, dmod._check_signal_header, dmod._signal_dtype) is None
        assert dmod.read_signal_csv(path).values.tolist() == [[1.5]]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=MUTATIONS)
    def test_fuzzed_signal_files(self, tmp_path, mutations):
        path = tmp_path / "signals.csv"
        dmod.write_signal_csv(TestReaderFuzz.TABLE, path)
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        _assert_paths_agree(dmod.read_signal_csv, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=MUTATIONS, n_stations=st.sampled_from([ABOVE_EVERY_ID, 3]))
    def test_fuzzed_edge_files(self, tmp_path, mutations, n_stations):
        path = tmp_path / "edges.csv"
        dmod.write_edges_csv(TestReaderFuzz.PG, path)
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        _assert_paths_agree(_read_edges(n_stations), path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cells=st.lists(
            st.lists(st.text(st.sampled_from("0123456789.-+e_n ai\t\x1c\"#,"), max_size=6),
                     min_size=1, max_size=3),
            min_size=0, max_size=4,
        ),
        crlf=st.booleans(),
    )
    def test_random_cells(self, tmp_path, cells, crlf):
        end = "\r\n" if crlf else "\n"
        for header, read in (("timestamp,s0", dmod.read_signal_csv),
                             ("from,to,cost", _read_edges(ABOVE_EVERY_ID))):
            path = tmp_path / "in.csv"
            path.write_bytes((end.join([header] + [",".join(row) for row in cells]) + end).encode())
            _assert_paths_agree(read, path)


class TestSyntheticData:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"steps": 0}, "steps must be at least 1, got 0"),
            ({"period": 0}, "period must be a positive finite number, got 0"),
            ({"period": float("inf")}, "period must be a positive finite number, got inf"),
            ({"noise": float("nan")}, "noise must be a finite number >= 0, got nan"),
            ({"noise": -0.5}, "noise must be a finite number >= 0, got -0.5"),
        ],
        ids=["zero-steps", "zero-period", "infinite-period", "nan-noise", "negative-noise"],
    )
    def test_unusable_argument_rejected(self, bad, message):
        with pytest.raises(ValueError) as info:
            dmod.generate_synthetic(**{"n_stations": 4, "steps": 30, "seed": 0, **bad})
        assert str(info.value) == message
    def test_same_seed_identical_bytes(self, tmp_path):
        for run in range(2):
            table, pg = dmod.generate_synthetic(6, 200, seed=7)
            dmod.write_signal_csv(table, tmp_path / f"s{run}.csv")
            dmod.write_edges_csv(pg, tmp_path / f"e{run}.csv")
        assert (tmp_path / "s0.csv").read_bytes() == (tmp_path / "s1.csv").read_bytes()
        assert (tmp_path / "e0.csv").read_bytes() == (tmp_path / "e1.csv").read_bytes()

    def test_zero_noise_is_periodic(self):
        # repeating the last period of the observed window forecasts the next
        period = 6
        table, _ = dmod.generate_synthetic(4, 120, seed=3, period=period, noise=0.0)
        np.testing.assert_allclose(table.values[period:], table.values[:-period], atol=1e-9)
        window = table.values[: 12 + 6]
        rmse, _, _ = forecast_metrics(window[12 - period : 12].T, window[12:].T)
        assert rmse < 1e-9

    def test_smoothness_below_shuffled(self):
        table, pg = dmod.generate_synthetic(10, 300, seed=4)
        sskel = build_spatial_skeleton(pg, 3)
        tskel = build_temporal_skeleton(10, 18, 3)
        bank = MetricBank.default(18, 3, feature_dim=2)
        rng = np.random.default_rng(5)

        def priors_of(values):
            x = values[:18].reshape(-1)  # time-major flattening
            feats = np.zeros((180, 2))
            wu = undirected_weights(feats, sskel, bank.undirected[0])
            wd = directed_weights(feats, tskel, bank.directed[0])
            from stforecast.attention import build_mixed_graph

            g = build_mixed_graph(wu, wd, sskel, tskel, n_observed=12)
            return priors.glr(x, g.l_u), priors.dglr(x, g.l_rd)

        glr_real, dglr_real = priors_of(table.values)
        shuffled = table.values.copy()
        rng.shuffle(shuffled.reshape(-1))
        glr_shuf, dglr_shuf = priors_of(shuffled)
        assert glr_real < glr_shuf
        assert dglr_real < dglr_shuf

    @pytest.mark.parametrize("n", [4, 20, 1000])
    def test_edges_match_the_pair_loop(self, n):
        # the generator's road graph rebuilt, its edges collected pair by pair
        pos = np.random.default_rng(0).uniform(size=(n, 2))
        dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
        adj = (dist <= np.sqrt(2.5 / n)) & ~np.eye(n, dtype=bool)
        mst = minimum_spanning_tree(sp.csr_matrix(dist + np.eye(n))).toarray() > 0
        adj |= mst | mst.T
        want = [(i, j, float(dist[i, j])) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
        _, pg = dmod.generate_synthetic(n, 1, seed=0)
        assert pg.edges.dtype == EDGE_DTYPE
        assert pg.edges.tobytes() == np.array(want, dtype=EDGE_DTYPE).tobytes()

    def test_connected_road_graph(self):
        _, pg = dmod.generate_synthetic(15, 50, seed=6)
        # reachable set from station 0 covers everything
        adj = {i: set() for i in range(15)}
        for i, j, _ in pg.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        assert len(seen) == 15


@pytest.fixture
def synth_dir(tmp_path):
    rc = cli_main([
        "synth", "--out", str(tmp_path), "--stations", "5", "--steps", "160",
        "--seed", "2", "--period", "24",
    ])
    assert rc == 0
    cfg = {
        "graph": {"k": 2, "window": 2},
        "layers": {"blocks": 1, "layers": 3},
        "heads": {"count": 1},
        "tuner": {"iterations": 2, "eval_samples": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path


class TestCli:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["--bogus"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_forecast_writes_outputs(self, synth_dir, capsys):
        out = synth_dir / "fc"
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(out), "--max-samples", "2",
        ])
        assert rc == 0
        pred_lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert pred_lines[0] == "station,instant,predicted,actual"
        assert len(pred_lines) == 1 + 2 * 5 * 6  # 2 samples x 5 stations x 6 steps
        for line in pred_lines[1:]:
            float(line.split(",")[2])  # a plain number, not a numpy repr
        assert (out / "metrics.csv").exists()
        assert "rmse" in capsys.readouterr().out

    def test_forecast_names_an_infinite_signal_cell(self, synth_dir, capsys):
        # refused by the reader, not left to fail graph learning
        signals = synth_dir / "signals.csv"
        lines = signals.read_text().splitlines()
        cells = lines[40].split(",")
        lines[40] = ",".join(cells[:2] + ["inf"] + cells[3:])
        signals.write_text("\n".join(lines) + "\n")
        rc = cli_main([
            "forecast", "--signals", str(signals), "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"), "--out", str(synth_dir / "fc"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {signals}:41: column 3: infinite value 'inf'\n"

    def test_forecast_reads_the_signal_once(self, synth_dir, monkeypatch):
        reads = []
        read = dmod.read_signal_csv

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(dmod, "read_signal_csv", counting)
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(synth_dir / "fc"), "--max-samples", "1",
        ])
        assert rc == 0
        assert len(reads) == 1

    def test_graph_dump_picks_the_head(self, synth_dir):
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["heads"] = {"count": 2}
        (synth_dir / "two_heads.json").write_text(json.dumps(cfg))
        dumps = []
        for head in ("0", "1"):
            out = synth_dir / f"head{head}"
            rc = cli_main([
                "graph-dump", "--signals", str(synth_dir / "signals.csv"),
                "--edges", str(synth_dir / "edges.csv"),
                "--config", str(synth_dir / "two_heads.json"),
                "--out", str(out), "--head", head,
            ])
            assert rc == 0
            dumps.append((out / "l_u.csv").read_text())
        assert dumps[0].splitlines()[0] == "row,col,value"
        assert len(dumps[0].splitlines()) == len(dumps[1].splitlines())
        assert dumps[0] != dumps[1]  # the heads' default metric scales differ

    def test_solve_trace(self, synth_dir, capsys):
        trace = synth_dir / "trace.csv"
        rc = cli_main([
            "solve", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--trace", str(trace),
        ])
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "layer,objective,res_phi,res_zu,res_zd,phi_kept"
        assert len(lines) == 1 + 3  # three layers

    def test_solve_trace_counts_the_kept_phi_entries(self, tmp_path):
        # seed-0 desk data, 3 x 5 x 1, the first validation window: the l1
        # threshold mu_d1 / rho = 3 / sqrt(20 / 18) keeps no phi entry in any
        # layer of block 0; mu_d1 = 0.01 keeps some in every layer
        assert cli_main(["synth", "--out", str(tmp_path), "--seed", "0"]) == 0
        config, trace, kept = tmp_path / "config.json", tmp_path / "trace.csv", {}
        for mu_d1 in (3.0, 0.01):
            layers = {"blocks": 3, "layers": 5, "mu_d1": mu_d1}
            config.write_text(json.dumps({"layers": layers, "heads": {"count": 1}}))
            assert cli_main(["solve", "--signals", str(tmp_path / "signals.csv"), "--edges",
                             str(tmp_path / "edges.csv"), "--config", str(config),
                             "--split", "val", "--trace", str(trace)]) == 0
            rows = csv.DictReader(trace.read_text().splitlines())
            kept[mu_d1] = [int(row["phi_kept"]) for row in rows]
        assert kept[3.0] == [0] * 5
        assert len(kept[0.01]) == 5 and min(kept[0.01]) > 0

    def test_solve_trace_decays_on_smooth_instance(self, synth_dir):
        # longer run: split residuals must decay
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["layers"] = {"blocks": 1, "layers": 60, "mu_d1": 0.0}
        cfg["solver"] = {"cg_mode": "exact"}
        (synth_dir / "config2.json").write_text(json.dumps(cfg))
        trace = synth_dir / "trace2.csv"
        rc = cli_main([
            "solve", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config2.json"),
            "--trace", str(trace),
        ])
        assert rc == 0
        rows = trace.read_text().strip().splitlines()[1:]
        res_zu = [float(r.split(",")[3]) for r in rows]
        res_zd = [float(r.split(",")[4]) for r in rows]
        assert res_zu[-1] < res_zu[0] and res_zu[-1] < 1e-2
        assert res_zd[-1] < res_zd[0] and res_zd[-1] < 1e-2

    def test_tune_writes_config(self, synth_dir, capsys):
        out = synth_dir / "tuned.json"
        rc = cli_main([
            "tune", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(out), "--iterations", "2",
        ])
        assert rc == 0
        tuned = PipelineConfig.load(out)
        assert tuned.layers.blocks == 1

    def test_outputs_into_missing_directories(self, synth_dir, capsys):
        # each output's directory is made before the work, as forecast and
        # graph-dump make theirs
        data_args = ["--signals", str(synth_dir / "signals.csv"),
                     "--edges", str(synth_dir / "edges.csv"),
                     "--config", str(synth_dir / "config.json")]
        out, trace = synth_dir / "a" / "b" / "tuned.json", synth_dir / "c" / "trace.csv"
        rc = cli_main(["tune", *data_args, "--iterations", "1", "--out", str(out),
                       "--trace", str(trace)])
        assert rc == 0, capsys.readouterr().err
        assert PipelineConfig.load(out).layers.blocks == 1
        assert trace.read_text().startswith("iter,loss_plus,loss_minus,best,rejected\n")
        trace = synth_dir / "d" / "solve.csv"
        assert cli_main(["solve", *data_args, "--trace", str(trace)]) == 0
        assert len(trace.read_text().strip().splitlines()) == 1 + 3

    def test_output_directory_that_is_a_file_fails_before_the_work(self, synth_dir, capsys,
                                                                    monkeypatch):
        (synth_dir / "file").write_text("")
        monkeypatch.setattr(tuning, "tune_spsa", lambda *a, **k: pytest.fail("tuned"))
        monkeypatch.setattr(solver, "admm_block", lambda *a, **k: pytest.fail("solved"))
        data_args = ["--signals", str(synth_dir / "signals.csv"),
                     "--edges", str(synth_dir / "edges.csv"),
                     "--config", str(synth_dir / "config.json")]
        for argv in (["tune", "--out", str(synth_dir / "file" / "tuned.json")],
                     ["tune", "--out", str(synth_dir / "tuned.json"),
                      "--trace", str(synth_dir / "file" / "t.csv")],
                     ["solve", "--trace", str(synth_dir / "file" / "t.csv")]):
            assert cli_main([*argv, *data_args]) == 1
            assert capsys.readouterr().err.startswith("error: [Errno")
        assert not (synth_dir / "tuned.json").exists()

    def test_forecast_output_directory_that_is_a_file_fails_before_the_work(
            self, synth_dir, capsys, monkeypatch):
        (synth_dir / "file").write_text("")
        monkeypatch.setattr(pipeline, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
        rc = cli_main(["forecast", "--signals", str(synth_dir / "signals.csv"),
                       "--edges", str(synth_dir / "edges.csv"),
                       "--config", str(synth_dir / "config.json"),
                       "--out", str(synth_dir / "file" / "fc")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_tune_from_a_zero_loss_reports_no_percentage(self, tmp_path, capsys):
        # a constant signal is forecast exactly, so the starting validation
        # loss is 0; the trace is still written
        table, pg = dmod.generate_synthetic(4, 120, 0, period=24)
        table.values[:] = 50.0
        dmod.write_signal_csv(table, tmp_path / "signals.csv")
        dmod.write_edges_csv(pg, tmp_path / "edges.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"layers": {"blocks": 1, "layers": 2},
                                      "heads": {"count": 1}}))
        out, trace = tmp_path / "best.json", tmp_path / "t.csv"
        rc = cli_main(["tune", "--signals", str(tmp_path / "signals.csv"),
                       "--edges", str(tmp_path / "edges.csv"), "--config", str(config),
                       "--out", str(out), "--iterations", "1", "--eval-samples", "1",
                       "--trace", str(trace)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["validation huber: 0 -> 0", f"wrote {out}", f"wrote {trace}"]
        assert PipelineConfig.load(out).layers.blocks == 1
        assert trace.read_text().splitlines()[1].startswith("0,0.0,0.0,0.0,")

    def test_tune_with_no_blocks_reports_no_change(self, synth_dir, capsys):
        # a model of no blocks forecasts hold-last; each per-block tunable
        # packs as an empty slot
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["layers"] = {"blocks": 0}
        (synth_dir / "no_blocks.json").write_text(json.dumps(cfg))
        out = synth_dir / "tuned.json"
        rc = cli_main([
            "tune", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "no_blocks.json"),
            "--out", str(out), "--iterations", "2",
        ])
        assert rc == 0, capsys.readouterr().err
        assert "(0.0% better)" in capsys.readouterr().out
        assert PipelineConfig.load(out).layers.blocks == 0

    def test_tuned_config_of_no_blocks_loads_with_a_block(self, synth_dir, capsys):
        # the empty per-block slots leave the config's own values in the
        # saved file, so raising blocks there gives a config that loads and runs
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["layers"] = {"blocks": 0}
        (synth_dir / "no_blocks.json").write_text(json.dumps(cfg))
        data_args = ["--signals", str(synth_dir / "signals.csv"),
                     "--edges", str(synth_dir / "edges.csv")]
        tuned = synth_dir / "tuned.json"
        assert cli_main(["tune", *data_args, "--config", str(synth_dir / "no_blocks.json"),
                         "--out", str(tuned), "--iterations", "2"]) == 0
        saved = json.loads(tuned.read_text())
        assert saved["layers"]["mu_u"] != [] and saved["layers"]["rho"] is None
        saved["layers"]["blocks"] = 1
        (synth_dir / "one_block.json").write_text(json.dumps(saved))
        capsys.readouterr()
        rc = cli_main(["forecast", *data_args, "--config", str(synth_dir / "one_block.json"),
                       "--out", str(synth_dir / "fc"), "--max-samples", "1"])
        assert rc == 0, capsys.readouterr().err
        assert PipelineConfig.load(synth_dir / "one_block.json").layers.blocks == 1

    @pytest.mark.parametrize(
        "command,flag,value,low",
        [
            ("forecast", "--max-samples", "0", 1),
            ("forecast", "--max-samples", "-2", 1),
            ("tune", "--eval-samples", "0", 1),
            ("tune", "--eval-samples", "-1", 1),
            ("tune", "--iterations", "-1", 0),
        ],
    )
    def test_bad_sample_or_iteration_count_exits_1(self, synth_dir, capsys, command, flag,
                                                   value, low):
        out = synth_dir / "out"
        rc = cli_main([
            command, "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"), "--out", str(out), flag, value,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be at least {low}, got {value}\n", err
        assert not out.exists()

    def test_tune_without_iterations_writes_the_config(self, synth_dir, capsys):
        out = synth_dir / "untuned.json"
        rc = cli_main([
            "tune", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"), "--out", str(out), "--iterations", "0",
        ])
        assert rc == 0
        assert PipelineConfig.load(out).to_dict() == PipelineConfig.load(
            synth_dir / "config.json"
        ).to_dict()
        assert capsys.readouterr().out == f"wrote {out}\n"

    def test_graph_dump(self, synth_dir):
        out = synth_dir / "dump"
        rc = cli_main([
            "graph-dump", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(out),
        ])
        assert rc == 0
        for name in ("l_u", "w_rd", "l_rd", "call_rd", "perron"):
            assert (out / f"{name}.csv").exists()
        perron_rows = (out / "perron.csv").read_text().strip().splitlines()[1:]
        cent = np.array([float(r.split(",")[1]) for r in perron_rows])
        assert cent.sum() == pytest.approx(1.0)
        assert (cent > 0).all()

    def test_graph_dump_reads_the_validation_split(self, tmp_path):
        # every window in validation: the dump is its first window's, the
        # same graph as when every window is in test
        assert cli_main([
            "synth", "--out", str(tmp_path), "--stations", "8", "--steps", "300", "--seed", "0",
        ]) == 0
        dumps = {}
        for split, ratios in (("val", [0, 1, 0]), ("test", [0, 0, 1])):
            (tmp_path / f"{split}.json").write_text(json.dumps({"data": {"ratios": ratios}}))
            assert cli_main([
                "graph-dump", "--signals", str(tmp_path / "signals.csv"),
                "--edges", str(tmp_path / "edges.csv"), "--config", str(tmp_path / f"{split}.json"),
                "--out", str(tmp_path / split),
            ]) == 0
            dumps[split] = {name: (tmp_path / split / f"{name}.csv").read_bytes()
                            for name in ("l_u", "w_rd", "l_rd", "call_rd", "perron")}
        assert dumps["val"] == dumps["test"]

    def test_graph_dump_writes_each_components_perron_centrality(self, tmp_path):
        # a road network of two 6-station pieces gives a spatial slice of two
        # components: each gets its own Perron vector, summing to 1 over it
        assert cli_main([
            "synth", "--out", str(tmp_path), "--stations", "12", "--steps", "200", "--seed", "0",
        ]) == 0
        pieces = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        pieces += [(i + 6, j + 6) for i, j in pieces]
        (tmp_path / "edges.csv").write_text(
            "from,to,cost\n" + "".join(f"{i},{j},1.0\n" for i, j in pieces)
        )
        with pytest.warns(UserWarning, match="2 connected components"):
            rc = cli_main([
                "graph-dump", "--signals", str(tmp_path / "signals.csv"),
                "--edges", str(tmp_path / "edges.csv"), "--out", str(tmp_path / "dump"),
            ])
        assert rc == 0
        lines = (tmp_path / "dump" / "perron.csv").read_text().strip().splitlines()
        assert lines[0] == "station,centrality"
        station, cent = np.array([[float(v) for v in r.split(",")] for r in lines[1:]]).T
        np.testing.assert_array_equal(station, np.arange(12))
        assert (cent > 0).all()
        for piece in (cent[:6], cent[6:]):
            assert piece.sum() == pytest.approx(1.0, abs=1e-12)
        # each piece's vector is the top eigenvector of its own block of the slice
        l_u = np.zeros((12, 12))
        for r, c, v in np.loadtxt(tmp_path / "dump" / "l_u.csv", delimiter=",", skiprows=1):
            if r < 12 and c < 12:
                l_u[int(r), int(c)] = v
        w = -l_u
        np.fill_diagonal(w, 0.0)
        for idx in (slice(0, 6), slice(6, 12)):
            v = cent[idx]
            lam = v @ w[idx, idx] @ v / (v @ v)
            np.testing.assert_allclose(w[idx, idx] @ v, lam * v, atol=1e-12)

    def test_graph_dump_joins_a_split_skeleton(self, tmp_path):
        # the 4-nearest union alone splits this connected 200-station network
        # into 3 pieces; the skeleton joins them, so every station gets a centrality
        assert cli_main([
            "synth", "--out", str(tmp_path), "--stations", "200", "--steps", "200", "--seed", "0",
        ]) == 0
        rc = cli_main([
            "graph-dump", "--signals", str(tmp_path / "signals.csv"),
            "--edges", str(tmp_path / "edges.csv"), "--out", str(tmp_path / "dump"),
        ])
        assert rc == 0
        rows = (tmp_path / "dump" / "perron.csv").read_text().strip().splitlines()[1:]
        cent = np.array([float(r.split(",")[1]) for r in rows])
        assert len(cent) == 200 and (cent > 0).all()

    @pytest.mark.parametrize(
        "command,section,bad,message",
        [
            ("forecast", "layers", {"mu_u": None},
             "mu_u must be a finite number >= 0 or a list of them, got null"),
            ("forecast", "heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("tune", "heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("forecast", "solver", {"cg_alpha": [0.1, 0.2]},
             "cg_alpha has 2 entries; expected a scalar or cg_iters = 8 entries"),
            ("forecast", "tuner", {"iterations": -1}, "iterations must be an integer >= 0, got -1"),
            ("tune", "tuner", {"eval_samples": 0},
             "eval_samples must be an integer >= 1 or null, got 0"),
            ("forecast", "graph", {"kk": 2}, "unknown key 'kk' (value 2)"),
            ("forecast", "data", {"extrapolation": "hold-last"},
             "unknown key 'extrapolation' (value \"hold-last\")"),
            ("forecast", "data", {"stride": 1.5}, "stride must be an integer >= 1, got 1.5"),
            ("forecast", "data", {"history": 2.0}, "history must be an integer >= 1, got 2.0"),
            ("forecast", "graph", {"k": 2.5}, "k must be an integer >= 1, got 2.5"),
            ("tune", "heads", {"count": True}, "count must be an integer >= 1, got true"),
            ("forecast", "data", {"horizon": 0}, "horizon must be an integer >= 1, got 0"),
            ("forecast", "data", {"history": -1}, "history must be an integer >= 1, got -1"),
            ("forecast", "graph", {"window": 30},
             "window must satisfy 1 <= window < history + horizon = 18, got 30"),
            ("forecast", "graph", {"spatial_dim": -2}, "spatial_dim must be an integer >= 0, got -2"),
            ("forecast", "graph", {"feature_dim": 0}, "feature_dim must be an integer >= 1, got 0"),
            ("forecast", "graph", {"k": 0}, "k must be an integer >= 1, got 0"),
            ("forecast", "solver", {"cg_mode": "exact", "exact_cap": 0},
             "exact_cap must be an integer >= 1 or null, got 0"),
            ("tune", "solver", {"cg_mode": "exact", "exact_cap": -1},
             "exact_cap must be an integer >= 1 or null, got -1"),
            ("forecast", "layers", {"residual": [0.5, 0.5]},
             "residual must be a number, a per-block list of length 1 or a 1 x 1 table, "
             "got [0.5, 0.5]"),
            ("forecast", "layers", {"residual": None},
             "residual must be a finite number in [0, 1] or a list of them, got null"),
            ("forecast", "data", {"ratios": [1.2, -0.1, -0.1]},
             "ratios must be three nonnegative numbers summing to 1, got [1.2, -0.1, -0.1]"),
            ("forecast", "heads", {"metric_overrides": [5]},
             "metric_overrides[0] must be an object with a head, an instant or a lag and a "
             "factor, got 5"),
            ("forecast", "data", {"mape_floor": "1"},
             'mape_floor must be a finite number >= 0, got "1"'),
            ("forecast", "graph", {"swish_beta": "x"},
             'swish_beta must be a finite number or null, got "x"'),
            ("forecast", "graph", {"aggregate_neighbors": "no"},
             'aggregate_neighbors must be one of false, true, got "no"'),
            ("forecast", "layers", {"mu_u": float("nan")},
             "mu_u must be a finite number >= 0 or a list of them, got NaN"),
            ("forecast", "solver", {"cg_alpha": float("nan")},
             "cg_alpha must be a finite number or a list of them, got NaN"),
            ("forecast", "solver", {"cg_mode": "exact", "cg_tol": -1},
             "cg_tol must be a finite number >= 0, got -1"),
            ("tune", "tuner", {"seed": -1}, "seed must be an integer >= 0, got -1"),
            ("forecast", "graph", {"feature_seed": -1},
             "feature_seed must be an integer >= 0, got -1"),
            ("forecast", "layers", {"rho_u": float("nan")},
             "rho_u must be a finite number > 0 or a list of them or null, got NaN"),
            ("forecast", "heads", {"metric_scale_d": [float("nan")]},
             "metric_scale_d must be a finite number > 0 or a list of them or null, got [NaN]"),
            ("tune", "tuner", {"decay_exponent": float("nan")},
             "unknown key 'decay_exponent' (value NaN)"),
            ("tune", "tuner", {"perturb_exponent": 0.101},
             "unknown key 'perturb_exponent' (value 0.101)"),
            ("forecast", "graph", {"projection": [[1.0]]}, "unknown key 'projection' (value [[1.0]])"),
            ("tune", "tuner", {"step": float("inf")},
             "step must be a finite number > 0, got Infinity"),
            ("forecast", "layers", {"mu_u": True},
             "mu_u must be a finite number >= 0 or a list of them, got true"),
            ("forecast", "heads", {"metric_overrides": [
                {"head": 0, "instant": 2, "lag": 3, "factor": np.eye(6).tolist()}]},
             "metric_overrides[0]: give an instant or a lag, not both; got instant 2 and lag 3"),
            ("forecast", "heads", {"metric_overrides": [
                {"head": 0, "instant": 2, "lag": 3, "factor": np.eye(6).tolist(), "scale": 9}]},
             "metric_overrides[0]: unknown key 'scale' (value 9)"),
            ("forecast", "solver", {"cg_iters": 0},
             "cg_iters must be an integer >= 1 in unrolled mode, got 0"),
        ],
        ids=["forecast-null-mu_u", "forecast-short-scale_u", "tune-short-scale_u",
             "forecast-cg_alpha-length", "forecast-negative-iterations", "tune-zero-eval_samples",
             "forecast-unknown-key", "forecast-deleted-extrapolation",
             "forecast-fractional-stride", "forecast-float-history",
             "forecast-fractional-k", "tune-boolean-count", "forecast-zero-horizon",
             "forecast-negative-history", "forecast-long-window", "forecast-negative-spatial_dim",
             "forecast-zero-feature_dim", "forecast-zero-k", "forecast-zero-exact_cap",
             "tune-negative-exact_cap", "forecast-long-residual", "forecast-null-residual",
             "forecast-negative-ratio", "forecast-override-not-an-object",
             "forecast-string-mape_floor", "forecast-string-swish_beta",
             "forecast-string-aggregate_neighbors", "forecast-nan-mu_u", "forecast-nan-cg_alpha",
             "forecast-negative-cg_tol", "tune-negative-seed", "forecast-negative-feature_seed",
             "forecast-nan-rho_u", "forecast-nan-metric_scale_d", "tune-nan-decay_exponent",
             "tune-deleted-perturb_exponent", "forecast-deleted-projection",
             "tune-infinite-step", "forecast-boolean-mu_u", "forecast-override-instant-and-lag",
             "forecast-override-unknown-key", "forecast-zero-cg_iters"],
    )
    def test_bad_config_value_exits_1(self, synth_dir, capsys, command, section, bad, message):
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg[section] = {**cfg.get(section, {}), **bad}
        (synth_dir / "bad.json").write_text(json.dumps(cfg))
        rc = cli_main([
            command, "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "bad.json"), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config section '{section}': {message}"), err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"timestamp,s0\n0,1.0\n300,\xff\n", "3: byte 0xff is not UTF-8"),
            (b"timestamp,s0\n0,1.0\n300," + b"9" * 200_000 + b"\n",
             "3: field larger than field limit (131072)"),
            (b"timestamp,s0\n0,1.0\n99999999999999999999,2.0\n",
             "3: column 1: timestamp '99999999999999999999' does not fit in 64 bits"),
            (b"timestamp,s0,s1,s2,s3,s4\n", " no data rows"),
        ],
        ids=["not-utf8", "oversized-field", "timestamp-overflow", "header-only"],
    )
    @pytest.mark.filterwarnings("error")  # a rejected file must not reach numpy's warnings
    def test_unreadable_signal_file_exits_1(self, synth_dir, capsys, content, message):
        bad = synth_dir / "bad.csv"
        bad.write_bytes(content)
        rc = cli_main([
            "forecast", "--signals", str(bad),
            "--edges", str(synth_dir / "edges.csv"), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{message}"), err

    def test_missing_input_file_exits_1(self, synth_dir, capsys):
        missing = synth_dir / "missing.csv"
        rc = cli_main([
            "forecast", "--signals", str(missing),
            "--edges", str(synth_dir / "edges.csv"), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and str(missing) in err

    def test_parse_error_exit_code(self, synth_dir, capsys):
        bad = synth_dir / "bad.csv"
        bad.write_text("timestamp,s0\n0,zzz\n")
        rc = cli_main([
            "forecast", "--signals", str(bad),
            "--edges", str(synth_dir / "edges.csv"), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_verify_subcommand(self, capsys):
        rc = cli_main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        n = len(verify.ALL_CHECKS)
        assert f"{n}/{n} checks passed" in out
        assert "FAIL" not in out
        # the README's self-check table states the same count
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"self-check table of {n} checks" in readme

    def test_files_with_a_byte_order_mark_forecast_as_plain(self, synth_dir):
        for name in ("signals.csv", "edges.csv"):
            (synth_dir / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (synth_dir / name).read_bytes())
        outputs = []
        for prefix in ("", "bom_"):
            out = synth_dir / f"{prefix}fc"
            assert cli_main([
                "forecast", "--signals", str(synth_dir / f"{prefix}signals.csv"),
                "--edges", str(synth_dir / f"{prefix}edges.csv"),
                "--config", str(synth_dir / "config.json"),
                "--out", str(out), "--max-samples", "2",
            ]) == 0
            outputs.append([(out / f).read_bytes() for f in ("predictions.csv", "metrics.csv")])
        assert outputs[0] == outputs[1]

    def test_forecast_deterministic_outputs(self, synth_dir):
        args = [
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"),
            "--max-samples", "2",
        ]
        assert cli_main(args + ["--out", str(synth_dir / "a")]) == 0
        assert cli_main(args + ["--out", str(synth_dir / "b")]) == 0
        a = (synth_dir / "a" / "predictions.csv").read_bytes()
        b = (synth_dir / "b" / "predictions.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "command,flag,value,count",
        [
            ("graph-dump", "--head", "2", 2),
            ("graph-dump", "--head", "-1", 2),
            ("solve", "--head", "2", 2),
            ("solve", "--head", "-1", 2),
            ("solve", "--index", "-1", None),
            ("solve", "--index", "999", None),
        ],
    )
    def test_out_of_range_head_or_index_rejected(self, synth_dir, capsys, command, flag,
                                                 value, count):
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["heads"] = {"count": 2}
        (synth_dir / "two_heads.json").write_text(json.dumps(cfg))
        args = [
            command, "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "two_heads.json"), flag, value,
        ]
        if command == "graph-dump":
            args += ["--out", str(synth_dir / "dump")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {value} is out of range [0, "), err
        if count is not None:
            assert f"[0, {count})" in err
        assert not (synth_dir / "dump").exists()

    def test_solve_without_blocks_exits_1(self, synth_dir, capsys):
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["layers"] = {"blocks": 0}
        (synth_dir / "no_blocks.json").write_text(json.dumps(cfg))
        rc = cli_main([
            "solve", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"), "--config", str(synth_dir / "no_blocks.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: solve runs block 0: layers.blocks must be at least 1, got 0\n"

    def test_bad_synth_argument_exits_1(self, tmp_path, capsys):
        assert cli_main(["synth", "--out", str(tmp_path), "--steps", "0"]) == 1
        assert capsys.readouterr().err == "error: steps must be at least 1, got 0\n"
        assert not (tmp_path / "signals.csv").exists()

    def test_bad_metric_override_exits_1(self, synth_dir, capsys):
        cfg = json.loads((synth_dir / "config.json").read_text())
        cfg["heads"] = {"count": 1, "metric_overrides": [
            {"head": 0, "instant": 3, "factor": [[1.5]]}]}
        (synth_dir / "bad_override.json").write_text(json.dumps(cfg))
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "bad_override.json"), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config section 'heads': metric_overrides[0]: "
                              "factor must be 6x6"), err

    @pytest.mark.parametrize("cg_mode", ["unrolled", "exact"])
    @pytest.mark.parametrize("key,step", [("mu_u", "z_u"), ("mu_d2", "z_d"), ("rho", "x")])
    def test_diverging_solve_prints_only_its_failure(self, tmp_path, capsys, key, step, cg_mode):
        # a prior or penalty of 1e306 overflows the first solve on it; the
        # solver reports that, and numpy warns of nothing before it
        assert cli_main(["synth", "--out", str(tmp_path), "--stations", "20", "--steps", "400",
                         "--seed", "2", "--period", "24"]) == 0
        cfg = {"graph": {"k": 2, "window": 2}, "heads": {"count": 1},
               "layers": {"blocks": 1, "layers": 2, key: 1e306}, "solver": {"cg_mode": cg_mode}}
        (tmp_path / "diverging.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main([
                "forecast", "--signals", str(tmp_path / "signals.csv"),
                "--edges", str(tmp_path / "edges.csv"),
                "--config", str(tmp_path / "diverging.json"), "--out", str(tmp_path / "x"),
            ])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        failure = ("unrolled CG diverged" if cg_mode == "unrolled"
                   else "CG curvature is not positive")
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {failure} (block 0, window 0, head 0, layer 0, "
                              f"step {step}, cg iteration "), err
        assert err.count("\n") == 1 and err.endswith(")\n"), err

    @pytest.mark.parametrize("doc", ["null", "5", "[]"])
    def test_config_not_an_object_exits_1(self, synth_dir, capsys, doc):
        bad_cfg = synth_dir / "not_an_object.json"
        bad_cfg.write_text(doc + "\n")
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(bad_cfg), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad_cfg}: expected a JSON object of config sections, got {doc}\n"

    @pytest.mark.parametrize("section,doc", [("layers", "[1]"), ("graph", "2"), ("data", "null")])
    def test_config_section_not_an_object_exits_1(self, synth_dir, capsys, section, doc):
        bad_cfg = synth_dir / "bad_section.json"
        bad_cfg.write_text(f'{{"{section}": {doc}}}\n')
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(bad_cfg), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: config section '{section}': "
                       f"expected a JSON object of settings, got {doc}\n"), err

    def test_config_error_names_section(self, synth_dir, capsys):
        bad_cfg = synth_dir / "bad_config.json"
        bad_cfg.write_text(json.dumps({"layers": {"blocks": 1, "bogus_key": 2}}))
        rc = cli_main([
            "forecast", "--signals", str(synth_dir / "signals.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--config", str(bad_cfg), "--out", str(synth_dir / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layers" in err and "bogus_key" in err


class TestForwardFailure:
    """A window whose attention mass underflows, from the signal CSV to the CLI and the tuner."""

    @staticmethod
    def bad_signals(synth_dir, step=145, station=2, value="1e9"):
        # one far-off value at step 145 of station 2 lies at instant 4 of the
        # last test window, window 1 of the two that ``--max-samples 2``
        # picks: that station's attention mass underflows there
        lines = (synth_dir / "signals.csv").read_text().splitlines()
        cells = lines[1 + step].split(",")
        cells[1 + station] = value
        lines[1 + step] = ",".join(cells)
        path = synth_dir / "bad_signals.csv"
        path.write_text("\n".join(lines) + "\n")
        spec = dmod.DatasetSpec(path, synth_dir / "edges.csv",
                                PipelineConfig.load(synth_dir / "config.json").data)
        return path, dmod.load_dataset(spec)

    def test_forecast_names_block_window_head_instant(self, synth_dir, capsys):
        path, _loaded = self.bad_signals(synth_dir)
        rc = cli_main([
            "forecast", "--signals", str(path), "--edges", str(synth_dir / "edges.csv"),
            "--config", str(synth_dir / "config.json"), "--out", str(synth_dir / "fc"),
            "--max-samples", "2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: zero attention mass (block 0, window 1, head 0, instant 4)\n", err

    def test_forecast_names_an_underflowed_temporal_weight(self, synth_dir, capsys):
        # with no road edge, station 4 has no spatial neighbours, and only its
        # temporal weights see the far-off value: at instant 4 of window 1 the
        # weights from its two predecessors differ so much that one underflows
        lines = (synth_dir / "edges.csv").read_text().splitlines()
        cut = synth_dir / "edges_cut.csv"
        cut.write_text("\n".join(r for r in lines if "4" not in r.split(",")[:2]) + "\n")
        path, _loaded = self.bad_signals(synth_dir, station=4, value="1e6")
        with pytest.warns(UserWarning, match="2 connected components"):
            rc = cli_main([
                "forecast", "--signals", str(path), "--edges", str(cut),
                "--config", str(synth_dir / "config.json"), "--out", str(synth_dir / "fc"),
                "--max-samples", "2",
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: zero temporal attention weight "
                       "(block 0, window 1, head 0, instant 4)\n"), err

    def test_is_a_numeric_failure_and_a_value_error(self, synth_dir):
        _path, (splits, pg, std) = self.bad_signals(synth_dir)
        cfg = PipelineConfig.load(synth_dir / "config.json")
        ctx = PipelineContext.build(pg, cfg, standardizer=std, interval=splits.interval)
        with pytest.raises(DegenerateWeightError) as info:
            evaluate(splits.test, ctx, max_samples=2)
        assert isinstance(info.value, NumericFailure)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "zero attention mass (block 0, window 1, head 0, instant 4)"

    def test_tune_names_a_failure_at_its_starting_point(self, synth_dir, capsys):
        # the far-off value at step 120 lies in validation windows: the
        # untuned config already fails there, and tune names the same block,
        # window, head and instant as a forecast of the windows it evaluates
        path, _loaded = self.bad_signals(synth_dir, step=120)
        data_args = ["--signals", str(path), "--edges", str(synth_dir / "edges.csv"),
                     "--config", str(synth_dir / "config.json")]
        assert cli_main(["forecast", *data_args, "--out", str(synth_dir / "fc"),
                         "--split", "val", "--max-samples", "10"]) == 1
        want = capsys.readouterr().err
        assert want.startswith("error: zero attention mass (block 0, window "), want
        assert cli_main(["tune", *data_args, "--out", str(synth_dir / "tuned.json"),
                         "--eval-samples", "10"]) == 1
        assert capsys.readouterr().err == want
        assert not (synth_dir / "tuned.json").exists()

    def test_tuner_scores_the_window_nan(self, synth_dir, monkeypatch):
        _path, (splits, pg, std) = self.bad_signals(synth_dir)
        cfg = PipelineConfig.load(synth_dir / "config.json")
        losses = []

        def first_loss(loss_fn, theta0, iterations, **kwargs):
            losses.append(loss_fn(theta0))
            return theta0, losses[0], tuning.SpsaTrace(iterations=[], best_losses=losses)

        monkeypatch.setattr(tuning, "spsa_minimize", first_loss)
        # the two windows the forecast above runs
        tuning.tune_spsa(cfg, pg, splits.test, standardizer=std, iterations=1, eval_samples=2,
                         interval=splits.interval)
        assert len(losses) == 1 and np.isnan(losses[0])
