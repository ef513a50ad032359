"""Dataset I/O, window cutting, synthetic generation, and the CLI surface."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stforecast import data as dmod
from stforecast import priors
from stforecast.attention import MetricBank, directed_weights, undirected_weights
from stforecast.cli import cli_main
from stforecast.config import DataSettings, PipelineConfig
from stforecast.graphs import build_spatial_skeleton, build_temporal_skeleton
from stforecast.pipeline import PipelineContext, forecast_metrics, initial_extrapolation, run_forecast


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
        assert pg.edges == ((0, 1, 1.0),)
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
        with pytest.raises(dmod.ParseError, match=r"bad_edges\.csv:3: station 3 out of range"):
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
         (dmod.load_road_network, "from,to,cost\n0,1,1.0\n1,2,{}\n")],
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
            b"nan", b"x", b"99999999999999999999", b"9" * 200_000]
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
    @given(mutations=MUTATIONS, n_stations=st.sampled_from([None, 3]))
    def test_edge_reader(self, tmp_path, mutations, n_stations):
        path = tmp_path / "edges.csv"
        dmod.write_edges_csv(self.PG, path)
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        self._loads_or_names_path(path, lambda p: dmod.load_road_network(p, n_stations))


class TestSyntheticData:
    def test_same_seed_identical_bytes(self, tmp_path):
        for run in range(2):
            table, pg = dmod.generate_synthetic(6, 200, seed=7)
            dmod.write_signal_csv(table, tmp_path / f"s{run}.csv")
            dmod.write_edges_csv(pg, tmp_path / f"e{run}.csv")
        assert (tmp_path / "s0.csv").read_bytes() == (tmp_path / "s1.csv").read_bytes()
        assert (tmp_path / "e0.csv").read_bytes() == (tmp_path / "e1.csv").read_bytes()

    def test_zero_noise_is_periodic(self):
        # the period must fit inside the observed window for seasonal-naive
        period = 6
        table, _ = dmod.generate_synthetic(4, 120, seed=3, period=period, noise=0.0)
        np.testing.assert_allclose(table.values[period:], table.values[:-period], atol=1e-9)
        window = table.values[: 12 + 6]
        pred = initial_extrapolation(window[:12].T, 6, "seasonal-naive", seasonal_period=period)
        rmse, _, _ = forecast_metrics(pred, window[12:].T)
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
        "data": {"seasonal_period": 24},
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
        assert (out / "metrics.csv").exists()
        assert "rmse" in capsys.readouterr().out

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
        assert lines[0] == "layer,objective,res_phi,res_zu,res_zd"
        assert len(lines) == 1 + 3  # three layers

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

    def test_graph_dump_disconnected_slice_exits_1(self, tmp_path, capsys):
        # the default 4-nearest skeleton of this 200-station network has 3 components
        assert cli_main([
            "synth", "--out", str(tmp_path), "--stations", "200", "--steps", "200", "--seed", "0",
        ]) == 0
        rc = cli_main([
            "graph-dump", "--signals", str(tmp_path / "signals.csv"),
            "--edges", str(tmp_path / "edges.csv"), "--out", str(tmp_path / "dump"),
        ])
        assert rc == 1
        assert "error: slice is not connected (3 components)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section,bad,message",
        [
            ("forecast", "layers", {"mu_u": None}, "mu_u must be a number or a table, not null"),
            ("forecast", "heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("tune", "heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("forecast", "solver", {"cg_alpha": [0.1, 0.2]},
             "cg_alpha has 2 entries; expected a scalar or cg_iters = 8 entries"),
        ],
        ids=["forecast-null-mu_u", "forecast-short-scale_u", "tune-short-scale_u",
             "forecast-cg_alpha-length"],
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
        ],
        ids=["not-utf8", "oversized-field", "timestamp-overflow"],
    )
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
        assert "checks passed" in out
        assert "FAIL" not in out

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
        assert err.startswith("error: metric_overrides[0]: factor must be 6x6"), err

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
