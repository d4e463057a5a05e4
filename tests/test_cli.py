import csv
import json
import subprocess
import sys
import time

import pytest

from craloha import ConfigError, run_simulation, throughput
from craloha.cli import (
    SUMMARY_COLUMNS,
    main,
    parse_config,
    run_sweep,
)

from conftest import make_scheme, make_traffic

GOOD = """\
# Fig-5 style point
mode=SW
window=100
n_rx=500
dist=crdsa2
lambda=0.6
total_slots=100000
seed=1
"""


class TestParseConfig:
    def test_valid_spec(self):
        spec = parse_config(GOOD)
        assert spec.scheme.mode.value == "SW"
        assert spec.scheme.window_slots == 100
        assert spec.scheme.receiver_memory_slots == 500
        (traffic,) = [t for row in spec.traffic for t in row]  # one lambda, one replication
        assert traffic.mean_arrival_rate == 0.6
        assert traffic.total_slots == 100_000
        # documented defaults
        assert spec.time.slot_duration_ms == 1.0 and spec.time.propagation_delay_ms == 250.0
        assert spec.scheme.max_ic_iterations == 50
        assert traffic.warmup_slots == 1000  # 10 * window
        assert traffic.rng_seed == 1

    def test_fr_defaults_memory_to_frame(self):
        spec = parse_config("mode=FR\nwindow=200\ndist=irsa8\nlambda=0.5\ntotal_slots=10000\n")
        assert spec.scheme.receiver_memory_slots == 200

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("mode=SW\nbogus=1\nwindow=10\nlambda=0.1\ntotal_slots=100\nn_rx=20\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'lambda'"):
            parse_config("mode=SW\nwindow=10\nn_rx=20\ntotal_slots=100\n")

    def test_degree_above_window_rejected(self):
        with pytest.raises(ConfigError, match="max degree"):
            parse_config("mode=SW\nwindow=4\nn_rx=8\ndist=irsa8\nlambda=0.1\ntotal_slots=100\n")

    def test_sw_without_memory_rejected(self):
        with pytest.raises(ConfigError, match="n_rx"):
            parse_config("mode=SW\nwindow=10\nlambda=0.1\ntotal_slots=1000\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 3: bad value for 'lambda'"):
            parse_config("mode=SW\nwindow=10\nlambda=abc\ntotal_slots=100\nn_rx=20\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("mode=SW\nmode=FR\nwindow=10\nlambda=0.1\ntotal_slots=100\nn_rx=20\n")

    def test_lambda_forms(self):
        base = "mode=SW\nwindow=10\nn_rx=20\ntotal_slots=100\nwarmup=10\nlambda={}\n"

        def lambdas(raw):
            return tuple(row[0].mean_arrival_rate for row in parse_config(base.format(raw)).traffic)

        assert lambdas("0.5") == (0.5,)
        assert lambdas("0.1,0.2,0.3") == (0.1, 0.2, 0.3)
        assert lambdas("0.1:0.4:0.1") == (0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("raw", ["0.1:inf:0.1", "nan:1:0.1", "-inf:1:0.1", "0.1:1:nan"])
    def test_non_finite_range_rejected(self, raw):
        # each of these once walked without end, growing the list of values
        text = f"mode=SW\nwindow=10\nn_rx=20\ntotal_slots=100\nwarmup=10\nlambda={raw}\n"
        with pytest.raises(ConfigError, match="line 6: bad value for 'lambda': range needs finite start, stop"):
            parse_config(text)

    def test_range_length_capped(self):
        base = "mode=SW\nwindow=10\nn_rx=20\ntotal_slots=100\nwarmup=10\nlambda={}\n"
        t0 = time.perf_counter()
        # 10^18 values: the uncapped walk ran for seconds without returning
        with pytest.raises(ConfigError, match="line 6: bad value for 'lambda': range gives more than 10000 values"):
            parse_config(base.format("0:1e9:1e-9"))
        assert time.perf_counter() - t0 < 0.5
        assert len(parse_config(base.format("0:9999:1")).traffic) == 10_000
        with pytest.raises(ConfigError, match="line 6: bad value for 'lambda': range gives more than 10000 values"):
            parse_config(base.format("0:10000:1"))

    def test_inline_distribution(self):
        spec = parse_config(
            "mode=SW\nwindow=10\nn_rx=20\nlambda=0.1\ntotal_slots=100\nwarmup=10\ndist=2:0.5102,4:0.4898\n"
        )
        assert spec.scheme.degree_distribution.entries == ((2, 0.5102), (4, 0.4898))

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError, match="warmup"):
            parse_config("mode=SW\nwindow=10\nn_rx=20\nlambda=0.1\ntotal_slots=50\n")


def write_config(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunCommand:
    def test_run_matches_direct_invocation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=20\nn_rx=100\ndist=crdsa2\nlambda=0.4\n"
            f"total_slots=5000\nwarmup=200\nseed=3\nout={tmp_path}/res\nformat=both\ntimestamp=off\n",
        )
        assert main(["run", str(cfg)]) == 0
        with open(tmp_path / "res_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(SUMMARY_COLUMNS)
        scheme = make_scheme("SW", window=20, dist="crdsa2", n_rx=100)
        traffic = make_traffic(lam=0.4, total=5000, warmup=200, seed=3, window=20)
        expect = throughput(run_simulation(scheme, traffic))
        assert float(rows[0]["throughput_mean"]) == pytest.approx(expect, abs=1e-6)
        assert rows[0]["seeds"] == "1"
        hist = (tmp_path / "res_hist.csv").read_text().splitlines()
        assert hist[0] == "delay_ms,count,pdf,cdf"
        payload = json.loads((tmp_path / "res_summary.json").read_text())
        assert payload["config"]["window"] == 20
        assert "generated" not in payload

    def test_run_json_echoes_the_one_replication_it_ran(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=20\nn_rx=100\nlambda=0.4\ntotal_slots=3000\nwarmup=200\nseed=3\n"
            f"replications=2\nout={tmp_path}/res\nformat=json\ntimestamp=off\n",
        )
        assert main(["run", str(cfg)]) == 0
        assert "ignoring replications>1" in capsys.readouterr().err
        payload = json.loads((tmp_path / "res_summary.json").read_text())
        assert payload["config"]["replications"] == 1 == payload["rows"][0]["seeds"]
        assert payload["config"]["seed"] == 3

    def test_run_rejects_lambda_list(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "mode=SW\nwindow=20\nn_rx=100\nlambda=0.1,0.2\ntotal_slots=2000\n"
        )
        assert main(["run", str(cfg)]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mode=SW\nwindow=20\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/x.conf"]) == 1


class TestFailFast:
    """A bad value in any sweep point is a config error before any run starts."""

    BASE = "mode=SW\nwindow=20\nn_rx=100\ntotal_slots=2000\nwarmup=100\n"

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("lambda=0.1,-0.2\nseed=1\n", "lambda=-0.2 seed=1: mean_arrival_rate"),
            ("lambda=0.1\nseed=18446744073709551615\nreplications=2\n", "seed=18446744073709551616: rng_seed"),
            ("lambda=0.1\nbin_width_ms=0\n", "bin_width_ms must be > 0"),
            ("lambda=nan\n", "lambda=nan seed=0: mean_arrival_rate must be finite"),
            ("lambda=0.1\nt_p=nan\n", "propagation_delay_ms must be >= 0 and finite, got nan"),
            ("lambda=0.1\nt_p=inf\n", "propagation_delay_ms must be >= 0 and finite, got inf"),
            ("lambda=0.1\nt_slot=inf\n", "slot_duration_ms must be > 0 and finite, got inf"),
            ("lambda=0.1\nbin_width_ms=inf\n", "bin_width_ms must be > 0 and finite, got inf"),
        ],
        ids=(
            "negative-later-lambda", "seed-overflow", "zero-bin-width", "nan-lambda",
            "nan-t_p", "inf-t_p", "inf-t_slot", "inf-bin-width",
        ),
    )
    def test_bad_point_fails_before_any_run(self, tmp_path, capsys, monkeypatch, lines, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a simulation ran before the config was validated")

        monkeypatch.setattr("craloha.cli.run_simulation", no_run)
        cfg = write_config(tmp_path, self.BASE + lines + f"out={tmp_path}/res\n")
        assert main(["sweep", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not list(tmp_path.glob("res*"))

    def test_bad_front_end_values_are_collected_by_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self.BASE + "lambda=0.1\nreplications=0\nformat=xml\n")
        assert str(info.value).splitlines() == [
            "line 7: bad value for 'replications': replications must be >= 1, got 0",
            "line 8: bad value for 'format': format must be csv, json or both, got 'xml'",
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("hist=maybe", "line 7: bad value for 'hist': expected on/off, true/false or 1/0, got 'maybe'"),
            ("timestamp=yes", "line 7: bad value for 'timestamp': expected on/off, true/false or 1/0, got 'yes'"),
            (
                "dist=2:0.5,3",
                "line 7: bad value for 'dist': bad entry '3': expected degree:probability, as in '2:0.5,3:0.5'",
            ),
        ],
        ids=["hist", "timestamp", "dist-entry"],
    )
    def test_bad_value_names_the_accepted_form(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config(self.BASE + f"lambda=0.1\n{line}\n")
        assert str(info.value) == message

    def test_bad_required_value_is_not_also_missing(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self.BASE + "lambda=0.5:0.1:0.1\n")
        assert "bad value for 'lambda'" in str(info.value)
        assert "missing" not in str(info.value)


class TestSweepCommand:
    def test_sweep_rows_and_determinism(self, tmp_path):
        text = (
            "mode=FR\nwindow=20\ndist=crdsa2\nlambda=0.2,0.4\ntotal_slots=4000\n"
            f"warmup=200\nseed=5\nreplications=2\nout={tmp_path}/sw\nformat=both\ntimestamp=off\n"
        )
        spec = parse_config(text)
        rows = run_sweep(spec)
        assert [r["lambda"] for r in rows] == [0.2, 0.4]
        assert all(r["seeds"] == 2 for r in rows)
        first = (tmp_path / "sw_summary.csv").read_bytes()
        first_json = (tmp_path / "sw_summary.json").read_bytes()
        run_sweep(spec)
        assert (tmp_path / "sw_summary.csv").read_bytes() == first
        assert (tmp_path / "sw_summary.json").read_bytes() == first_json

    def test_single_point_sweep_equals_run(self, tmp_path):
        text = (
            "mode=SW\nwindow=20\nn_rx=100\nlambda=0.4\ntotal_slots=5000\n"
            f"warmup=200\nseed=3\nout={tmp_path}/one\ntimestamp=off\n"
        )
        rows = run_sweep(parse_config(text))
        scheme = make_scheme("SW", window=20, dist="crdsa2", n_rx=100)
        traffic = make_traffic(lam=0.4, total=5000, warmup=200, seed=3, window=20)
        assert rows[0]["throughput_mean"] == pytest.approx(
            throughput(run_simulation(scheme, traffic)), abs=1e-12
        )

    def test_parallel_sweep_matches_serial(self, tmp_path):
        base = (
            "mode=SW\nwindow=20\nn_rx=60\nlambda=0.3,0.5\ntotal_slots=3000\n"
            "warmup=100\nseed=2\nreplications=2\ntimestamp=off\nformat=csv\n"
        )
        serial = run_sweep(parse_config(base + f"out={tmp_path}/ser\n"))
        parallel = run_sweep(parse_config(base + f"out={tmp_path}/par\nworkers=2\n"))
        assert serial == parallel
        ser = (tmp_path / "ser_summary.csv").read_text()
        par = (tmp_path / "par_summary.csv").read_text()
        assert ser == par

    def test_cli_import_leaves_process_pool_unloaded(self):
        # only a sweep with workers > 1 needs it
        code = "import sys, craloha, craloha.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_package_import_leaves_scipy_unloaded(self):
        code = "import sys, craloha, craloha.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_pool_starts_at_most_one_worker_per_point(self, tmp_path, monkeypatch):
        # A serial stand-in records the pool size; it starts no process.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = (
            "mode=FR\nwindow=20\ndist=crdsa2\nlambda=0.3,0.5\ntotal_slots=2000\n"
            "warmup=100\nseed=4\ntimestamp=off\nformat=both\n"
        )
        assert run_sweep(parse_config(base + f"out={tmp_path}/many\nworkers=500\n")) == run_sweep(
            parse_config(base + f"out={tmp_path}/one\n")
        )
        assert sizes == [2]
        for suffix in ("_summary.csv", "_summary.json"):
            assert (tmp_path / f"many{suffix}").read_bytes() == (tmp_path / f"one{suffix}").read_bytes()
        # one point runs in this process: no pool
        run_sweep(parse_config(base.replace("0.3,0.5", "0.3") + f"out={tmp_path}/single\nworkers=4\n"))
        assert sizes == [2]

    def test_hist_files(self, tmp_path):
        text = (
            "mode=SW\nwindow=20\nn_rx=60\nlambda=0.4\ntotal_slots=3000\nwarmup=100\n"
            f"seed=2\nhist=on\nout={tmp_path}/h\ntimestamp=off\n"
        )
        run_sweep(parse_config(text))
        assert (tmp_path / "h_hist_l0.4_s2.csv").exists()


class TestAnalyticCommand:
    def test_equality_check(self, capsys):
        assert main(["analytic", "3", "7", "5"]) == 0
        out = capsys.readouterr().out
        assert "0.428571428571" in out
        assert "OK" in out

    def test_bad_arguments(self, capsys):
        assert main(["analytic", "9", "7", "5"]) == 2


class TestOracleCommand:
    @pytest.fixture
    def trace_lines(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=10\nn_rx=4000\nlambda=0.5\ntotal_slots=3000\n"
            f"warmup=100\nseed=4\nout={tmp_path}/o\ntimestamp=off\n",
        )
        assert main(["run", str(cfg), "--trace", str(tmp_path / "t.csv")]) == 0
        return (tmp_path / "t.csv").read_text().splitlines()

    @staticmethod
    def oracle(tmp_path, capsys, lines):
        """(exit code, stdout, stderr) of ``oracle`` on a trace of these lines."""
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["oracle", str(path)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_trace_matches_oracle(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=10\nn_rx=4000\nlambda=0.5\ntotal_slots=3000\n"
            f"warmup=100\nseed=4\nout={tmp_path}/o\ntimestamp=off\n",
        )
        assert main(["run", str(cfg), "--trace", str(tmp_path / "t.csv")]) == 0
        assert main(["oracle", str(tmp_path / "t.csv")]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_run_and_oracle_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique(x) without return flags imports numpy.ma on numpy >= 2.3;
        # a wide placement (dist irsa4 in a 20-slot window) and the oracle's
        # residual check both ran it.
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=20\nn_rx=100\ndist=irsa4\nlambda=0.6\ntotal_slots=2000\n"
            f"warmup=100\nseed=3\nout={tmp_path}/o\ntimestamp=off\n",
        )
        trace = tmp_path / "t.csv"
        code = (
            "import sys; from craloha.cli import main; "
            f"assert main(['run', {str(cfg)!r}, '--trace', {str(trace)!r}]) == 0; "
            f"assert main(['oracle', {str(trace)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "False"

    def test_bounded_memory_diff_detected(self, tmp_path, capsys):
        # tight memory loses cascades the unbounded oracle resolves
        cfg = write_config(
            tmp_path,
            "mode=SW\nwindow=50\nn_rx=50\nlambda=0.7\ntotal_slots=20000\n"
            f"warmup=100\nseed=4\nout={tmp_path}/o2\ntimestamp=off\n",
        )
        assert main(["run", str(cfg), "--trace", str(tmp_path / "t2.csv")]) == 0
        assert main(["oracle", str(tmp_path / "t2.csv")]) == 1
        assert "oracle-only" in capsys.readouterr().out

    def test_bad_trace_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["oracle", str(bad)]) == 2

    def test_short_trace_row_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("slot_index,packet_id,event,cause\n0,0,replica,-\n1,0,decode\n")
        assert main(["oracle", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lineno, edit",
        [
            (2, lambda f: ["1.5"] + f[1:]),
            (40, lambda f: [f[0], "x"] + f[2:]),
            (57, lambda f: f + ["9"]),
            (300, lambda f: []),
            # lines np.loadtxt parses that the writer never writes
            (12, lambda f: [f[0], "-" + f[1]] + f[2:]),
            (13, lambda f: f[:2] + [f'"{f[2]}"', f[3]]),
            (14, lambda f: f[:2] + ["decode", "foo"]),
            (15, lambda f: [f[0], "1" + "0" * 18] + f[2:]),
            (16, lambda f: f[:3] + [f[3] + " "]),
            (17, lambda f: ["0" + f[0]] + f[1:]),
            (18, lambda f: ["+" + f[0]] + f[1:]),
            (19, lambda f: f[:3] + [f[3] + "\r\r"]),
            (1, lambda f: f[:3] + ["CAUSE"]),
        ],
        ids=(
            "non-integer-slot",
            "non-integer-id",
            "extra-field",
            "blank-line",
            "negative-id",
            "quoted-field",
            "unknown-cause",
            "19-digit-id",
            "trailing-space",
            "leading-zero",
            "plus-sign",
            "lone-cr",
            "renamed-column",
        ),
    )
    def test_malformed_line_is_named(self, tmp_path, capsys, trace_lines, lineno, edit):
        trace_lines[lineno - 1] = ",".join(edit(trace_lines[lineno - 1].split(",")))
        code, _, err = self.oracle(tmp_path, capsys, trace_lines)
        assert code == 2
        assert f"line {lineno}:" in err

    def test_repeated_lines_and_sparse_ids_keep_set_semantics(self, tmp_path, capsys, trace_lines):
        code, expect, _ = self.oracle(tmp_path, capsys, trace_lines)
        assert code == 0 and "MATCH" in expect
        # every replica line twice: a (packet, slot) pair still counts once
        doubled = [ln for ln in trace_lines for _ in range(1 + (",replica," in ln))]
        assert self.oracle(tmp_path, capsys, doubled)[:2] == (0, expect)
        # ids need be neither dense nor ascending with the packet order
        header, *rows = trace_lines
        fields = [ln.split(",") for ln in rows]
        sparse = [header] + [",".join([f[0], str(10**6 - 7 * int(f[1]))] + f[2:]) for f in fields]
        assert self.oracle(tmp_path, capsys, sparse)[:2] == (0, expect)

    def test_header_only_trace_matches(self, tmp_path, capsys):
        code, out, _ = self.oracle(tmp_path, capsys, ["slot_index,packet_id,event,cause"])
        assert code == 0
        assert out.startswith("packets=0 decoder_decoded=0 oracle_decoded=0\nMATCH")

    def test_trailing_blank_crlf_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"slot_index,packet_id,event,cause\r\n0,0,replica,-\r\n0,0,decode,clean\r\n\r\n")
        assert main(["oracle", str(path)]) == 2
        assert "line 4:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, lineno",
        [
            (b"\r\n0,0,replica,-\r0,0,decode,clean\r", 2),
            (b"\n0,0,replica,-\n\n0,0,decode,clean", 3),
        ],
        ids=("cr-only", "blank-then-unterminated"),
    )
    def test_bad_line_ends_are_named(self, tmp_path, capsys, body, lineno):
        path = tmp_path / "ends.csv"
        path.write_bytes(b"slot_index,packet_id,event,cause" + body)
        assert main(["oracle", str(path)]) == 2
        assert f"line {lineno}:" in capsys.readouterr().err

    def test_event_names_compared_exactly(self, tmp_path, capsys):
        lines = ["slot_index,packet_id,event,cause", "0,0,replica,-", "0,0,decode,clean", "1,1,replicaX,-"]
        code, _, err = self.oracle(tmp_path, capsys, lines)
        assert code == 2
        assert "line 4:" in err
