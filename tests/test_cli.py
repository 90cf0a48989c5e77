"""End-to-end command-line behavior: files, exit codes, reproducibility."""
import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from iiot_netsim import cli, errors, reporting
from iiot_netsim.queueing_model import QueueParams, erlang_c_probability, mean_wait_in_queue
from iiot_netsim.reporting import rtt_summary_to_csv, summarize_rtt
from iiot_netsim.sim_engine import run_simulation


def shipped(name: str) -> Path:
    return Path(str(resources.files("iiot_netsim") / "configs" / name))


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


def read_intervals(out: Path) -> list[dict]:
    with open(out / "intervals.csv", newline="") as f:
        return list(csv.DictReader(f))


def load_doc(name: str) -> dict:
    return json.loads(shipped(name).read_text())


def write_doc(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestSimulate:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(
            ["simulate", "--config", str(shipped("default_simulate.json")), "--out", str(out)]
        )
        assert rc == 0
        assert {"intervals.csv", "rtt_summary.csv", "manifest.json"} <= {
            p.name for p in out.iterdir()
        }
        rows = read_intervals(out)
        assert sum(int(r["sent"]) for r in rows) == 3000
        assert all(r["lost"] == "0" for r in rows)
        assert "sent=3000" in capsys.readouterr().out

    def test_reruns_byte_identical(self, tmp_path):
        cfg = str(shipped("default_simulate.json"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("intervals.csv", "rtt_summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_snapshot_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(
            [
                "simulate",
                "--config",
                str(shipped("default_simulate.json")),
                "--out",
                str(a),
                "--seed",
                "31337",
            ]
        )
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["seed"] == 31337
        snap = write_doc(tmp_path, manifest["config"], "snap.json")
        cli.main(["simulate", "--config", snap, "--out", str(b)])
        assert (a / "intervals.csv").read_bytes() == (b / "intervals.csv").read_bytes()
        assert (a / "rtt_summary.csv").read_bytes() == (b / "rtt_summary.csv").read_bytes()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg = str(shipped("default_simulate.json"))
        out = tmp_path / "o"

        def seed_used(argv):
            assert cli.main(argv) == 0
            return json.loads((out / "manifest.json").read_text())["seed"]

        assert seed_used(["simulate", "--config", cfg, "--out", str(out)]) == 42
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        assert seed_used(["simulate", "--config", cfg, "--out", str(out)]) == 7
        assert (
            seed_used(["simulate", "--config", cfg, "--out", str(out), "--seed", "9"]) == 9
        )

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        rc = cli.main(
            [
                "simulate",
                "--config",
                str(shipped("default_simulate.json")),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        doc = load_doc("default_simulate.json")
        doc["nodecount"] = 5
        rc = cli.main(
            ["simulate", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nodecount" in err

    @pytest.mark.parametrize(
        "kind,params", [("rayleigh", {"sigma": 1.0}), ("rician", {"amplitude": 1.0, "sigma": 1.0})]
    )
    def test_doppler_key_exits_2(self, tmp_path, capsys, kind, params):
        # fading is i.i.d. per packet, so a Doppler spread is not a config key
        doc = load_doc("default_simulate.json")
        doc["fading"] = kind
        doc["fading_params"] = {**params, "doppler": 5.0}
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "doppler" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,fading",
        [
            ("duration_s", math.inf, None),
            ("rate_growth_per_tick", 1e308, None),
            ("snr_threshold_db", math.nan, None),
            ("report_window_s", math.inf, None),
            ("phase", math.inf, "rician"),
            ("phase", math.nan, "rician"),
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, key, value, fading):
        # json writes these as the non-standard literals Infinity and NaN
        doc = load_doc("default_simulate.json")
        if fading:
            doc["fading"] = fading
            doc["fading_params"] = {"amplitude": 1.0, "sigma": 1.0, key: value}
        else:
            doc[key] = value
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("tick_s", 5e-324),
            ("max_retries_per_leg", 10**308),
            ("packets_per_node_per_tick", 10**308),
        ],
        ids=["tick_s", "max_retries_per_leg", "packets_per_node_per_tick"],
    )
    def test_extreme_input_exits_2(self, tmp_path, capsys, key, value):
        # each overflows float arithmetic unless validation refuses it first
        doc = load_doc("default_simulate.json")
        doc[key] = value
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [(k, "5") if t is not str else (k, 5) for k, t in cli._CONFIG_KEYS.items()]
        + [
            (k, v)
            for k, t in cli._CONFIG_KEYS.items()
            if t in (int, float) or t == (float, None)
            for v in (True, math.nan, math.inf)
        ],
    )
    def test_config_key_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        doc = load_doc("default_compare.json")  # holds every config key
        assert set(doc) == set(cli._CONFIG_KEYS)
        doc[key] = value
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config.{key} must be")
        assert not out.exists()

    def test_integral_numbers_accepted_for_integer_keys(self):
        doc = load_doc("default_simulate.json")
        doc.update(node_count=5.0, seed=42.0, qos_level=2.0, max_retries_per_leg=8.0)
        cfg, _plan, _snapshot = cli.build_config(doc)
        ref, _plan, _snapshot = cli.build_config(load_doc("default_simulate.json"))
        assert cfg == ref
        assert isinstance(cfg.node_count, int) and isinstance(cfg.seed, int)
        doc["packets_per_node_per_tick"] = 60.5
        with pytest.raises(cli.InvalidConfigError, match="must be an integer"):
            cli.build_config(doc)

    def test_stdout_matches_summary_and_windows(self, tmp_path, capsys):
        doc = load_doc("default_compare.json")
        doc.update(fading="rayleigh", fading_params={"sigma": 1.0}, noise_n0=2.540456)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        printed = dict(f.split("=") for f in capsys.readouterr().out.split())
        rows = read_intervals(out)
        header, values = (out / "rtt_summary.csv").read_text().splitlines()
        summary = dict(zip(header.split(","), values.split(",")))
        assert int(printed["sent"]) == sum(int(r["sent"]) for r in rows)
        assert int(printed["delivered"]) == sum(int(r["delivered"]) for r in rows)
        assert int(printed["delivered"]) == int(summary["count"])
        assert int(printed["lost"]) == sum(int(r["lost"]) for r in rows) > 0
        assert float(printed["avg_latency_ms"]) == pytest.approx(
            float(summary["avg_ms"]), rel=1e-11
        )

    def test_overload_exits_3(self, tmp_path, capsys):
        doc = load_doc("default_simulate.json")
        doc["base_hop"]["service_rate_pps"] = 250.0  # offered 5*60=300 exceeds capacity
        rc = cli.main(
            ["simulate", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "instability" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(
            ["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_window_override(self, tmp_path):
        out = tmp_path / "o"
        cli.main(
            [
                "simulate",
                "--config",
                str(shipped("default_simulate.json")),
                "--out",
                str(out),
                "--window",
                "2.0",
            ]
        )
        rows = read_intervals(out)
        assert len(rows) == 5
        assert all(float(r["window_len_s"]) == 2.0 for r in rows)

    def test_partial_last_window_reports_its_own_length(self, tmp_path):
        # 10 s in 3 s windows: the last is 1 s long, and the run offers
        # 300 kbps throughout, so its throughput is 300 kbps too
        out = tmp_path / "o"
        cfg = str(shipped("default_simulate.json"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--window", "3"]) == 0
        rows = read_intervals(out)
        assert [(r["window_start_s"], r["window_len_s"], r["sent"]) for r in rows] == [
            ("0.0", "3.0", "900"),
            ("3.0", "3.0", "900"),
            ("6.0", "3.0", "900"),
            ("9.0", "1.0", "300"),
        ]
        assert {r["throughput_bps"] for r in rows} == {"300000.0"}

    @pytest.mark.parametrize("window", ["0.5", "1e-300", "0"])
    def test_window_shorter_than_a_tick_exits_2(self, tmp_path, capsys, window):
        out = tmp_path / "o"
        cfg = str(shipped("default_simulate.json"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--window", window]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report_window_s must be finite and >= tick_s")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("window", ["2.5", "1.5"])
    def test_window_not_whole_ticks_exits_2(self, tmp_path, capsys, window):
        # a 2.5 s window of 1 s ticks would hold 3 ticks, then 2, each
        # divided by 2.5 s
        out = tmp_path / "o"
        cfg = str(shipped("default_simulate.json"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--window", window]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report_window_s must be finite and >= tick_s")
        assert "whole number of ticks" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_nearly_whole_duration_writes_whole_windows(self, tmp_path):
        # 0.9 / 0.3 is just above 3 as doubles; 0.9 s is still 3 ticks,
        # so 3 windows of 0.3 s, with no sliver window after them
        doc = load_doc("default_simulate.json")
        doc.update(duration_s=0.9, tick_s=0.3, report_window_s=0.3, packets_per_node_per_tick=10)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_intervals(out)
        assert [(r["window_start_s"], r["window_len_s"]) for r in rows] == [
            ("0.0", "0.3"), ("0.3", "0.3"), ("0.6", "0.3")
        ]
        assert {r["sent"] for r in rows} == {str(10 * doc["node_count"])}

    @pytest.mark.parametrize("source", ["fanin_many_nodes", "default_simulate.json"])
    def test_one_window_prints_the_run_summary(self, tmp_path, source):
        # a window that holds the whole run holds the same packets as
        # rtt_summary.csv, so both print the same min, avg, max and count
        if source.endswith(".json"):
            cfg, flags = str(shipped(source)), ["--window", "10"]
        else:
            from perfbench import workloads

            cfg, flags = str(workloads.generate(source, 401, tmp_path / "in").config_path), []
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 0
        (window,) = read_intervals(out)
        with open(out / "rtt_summary.csv", newline="") as f:
            (summary,) = csv.DictReader(f)
        assert [window[f"{k}_latency_ms"] for k in ("min", "avg", "max")] == [
            summary[f"{k}_ms"] for k in ("min", "avg", "max")
        ]
        assert window["delivered"] == summary["count"]


    def test_parser_built_once_and_nothing_parsed_leaks(self, tmp_path, monkeypatch):
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=CountingParser))
        cfg = str(shipped("default_simulate.json"))
        out = tmp_path / "o"

        def window_and_seed(*flags):
            assert cli.main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            rows = read_intervals(out)
            assert {float(r["window_len_s"]) for r in rows} == {manifest["config"]["report_window_s"]}
            return manifest["config"]["report_window_s"], manifest["seed"]

        cli.build_parser.cache_clear()
        try:
            assert window_and_seed("--window", "2") == (2.0, 42)
            n_built = len(built)
            assert window_and_seed() == (5.0, 42)
            assert window_and_seed("--seed", "9") == (5.0, 9)
            assert window_and_seed() == (5.0, 42)
        finally:
            cli.build_parser.cache_clear()
        # the first call built the parser and its subcommand parsers; no later call built any
        assert n_built > 0 and len(built) == n_built


class TestCompareFading:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = cli.main(
            ["compare-fading", "--config", str(shipped("default_compare.json")), "--out", str(out)]
        )
        assert rc == 0
        csv = (out / "fading_table.csv").read_text().splitlines()
        assert csv[0] == "time_s,none_ms,rayleigh_ms,rician_ms,awgn_ms"
        assert len(csv) == 6
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0].split() == [
            "time_s",
            "none_ms",
            "rayleigh_ms",
            "rician_ms",
            "awgn_ms",
        ]
        assert (out / "manifest.json").exists()

    def test_columns_ordered_at_default_seed(self, tmp_path):
        out = tmp_path / "cmp"
        cli.main(
            ["compare-fading", "--config", str(shipped("default_compare.json")), "--out", str(out)]
        )
        for line in (out / "fading_table.csv").read_text().splitlines()[1:]:
            cells = [float(c) for c in line.split(",")[1:]]
            assert cells == sorted(cells)

    def test_single_kind_exits_2(self, tmp_path, capsys):
        doc = load_doc("default_compare.json")
        doc["comparison"]["kinds"] = doc["comparison"]["kinds"][:1]
        rc = cli.main(
            ["compare-fading", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "2 fading kinds" in capsys.readouterr().err

    def test_missing_comparison_section_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            [
                "compare-fading",
                "--config",
                str(shipped("default_simulate.json")),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "comparison" in capsys.readouterr().err

    def test_sample_time_outside_duration_exits_2(self, tmp_path):
        doc = load_doc("default_compare.json")
        doc["comparison"]["sample_times_s"] = [2.0, 11.0]
        rc = cli.main(
            ["compare-fading", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_reruns_byte_identical(self, tmp_path):
        cfg = str(shipped("default_compare.json"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["compare-fading", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["compare-fading", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "fading_table.csv").read_bytes() == (b / "fading_table.csv").read_bytes()


def _overload(doc):
    doc["base_hop"]["service_rate_pps"] = 250.0  # offered 5*60=300 exceeds capacity


def _zero_rayleigh_noise(doc):
    doc["comparison"]["kinds"][1]["noise_n0"] = 0.0  # kinds[1] is rayleigh


@pytest.mark.parametrize(
    "command,config,edit,code,message",
    [
        ("simulate", "default_simulate.json", _overload, 3, "instability"),
        ("compare-fading", "default_compare.json", _zero_rayleigh_noise, 2, "noise_n0"),
    ],
    ids=["simulate-overload", "compare-fading-zero-noise"],
)
def test_library_rejection_leaves_no_output_dir(
    tmp_path, capsys, command, config, edit, code, message
):
    # these inputs pass config parsing and are rejected by the library call
    doc = load_doc(config)
    edit(doc)
    out = tmp_path / "o"
    rc = cli.main([command, "--config", write_doc(tmp_path, doc), "--out", str(out)])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# every package error type, OSError and MemoryError, with the literal
# code main returns
EXIT_CODES = {
    errors.NetsimError: 2,
    errors.InvalidParameterError: 2,
    errors.DomainError: 2,
    errors.InstabilityError: 3,
    errors.ShapeMismatchError: 2,
    errors.InvalidConfigError: 2,
    errors.StatisticalCheckError: 4,
    OSError: 2,
    MemoryError: 2,
}


def stub_command(monkeypatch, exc: BaseException) -> None:
    """Make every argv run a command that raises exc."""

    def fail(args):
        raise exc

    parser = SimpleNamespace(parse_args=lambda argv: SimpleNamespace(func=fail))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


def test_exit_codes_cover_every_error_type():
    package = {
        v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
    }
    assert package | {OSError, MemoryError} == set(EXIT_CODES)


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda e: e.__name__)
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, error):
    stub_command(monkeypatch, error("stubbed failure"))
    assert cli.main(["any"]) == EXIT_CODES[error]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stubbed failure\n"


def test_bare_memory_error_still_prints_a_message(monkeypatch, capsys):
    stub_command(monkeypatch, MemoryError())
    assert cli.main(["any"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-channel", "--kind", "rayleigh", "--samples", str(10**15)],
        ["qos-reliability", "0.9", "0.9", "0.9", "0.9", "--samples", str(10**15)],
    ],
    ids=["validate-channel", "qos-reliability"],
)
def test_oversized_sample_count_exits_2(tmp_path, capsys, argv):
    # numpy refuses an array of petabytes at once, before touching memory
    out = tmp_path / "o"
    extra = ["--out", str(out)] if argv[0] == "validate-channel" else []
    assert cli.main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


def test_other_exceptions_propagate(monkeypatch, capsys):
    stub_command(monkeypatch, ZeroDivisionError("not a usage error"))
    with pytest.raises(ZeroDivisionError):
        cli.main(["any"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "argv",
    [["validate-channel", "--kind", "awgn", "--n0", "1"], ["qos-reliability", "1", "1", "1", "1"]],
    ids=["validate-channel", "qos-reliability"],
)
def test_out_of_range_seed_exits_2(tmp_path, capsys, argv, seed):
    out = tmp_path / "o"
    extra = ["--out", str(out)] if argv[0] == "validate-channel" else []
    assert cli.main(argv + extra + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


class TestValidateChannel:
    def test_rayleigh_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = cli.main(
            [
                "validate-channel",
                "--kind",
                "rayleigh",
                "--sigma",
                "1.0",
                "--samples",
                "50000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "pass" in stdout and "check ks[rayleigh]" in stdout
        lines = (out / "channel_pdf.csv").read_text().splitlines()
        assert lines[0] == "r,pdf_analytic,pdf_empirical"
        assert len(lines) == 1 + cli.PDF_BINS

    def test_awgn_quadrature_check(self, tmp_path, capsys):
        rc = cli.main(
            [
                "validate-channel",
                "--kind",
                "awgn",
                "--n0",
                "2.0",
                "--samples",
                "50000",
                "--out",
                str(tmp_path / "v"),
            ]
        )
        assert rc == 0
        assert "quadrature-variance" in capsys.readouterr().out

    def test_degenerate_rician_matches_rayleigh(self, tmp_path, capsys):
        rc = cli.main(
            [
                "validate-channel",
                "--kind",
                "rician",
                "--amplitude",
                "0.0",
                "--sigma",
                "2.0",
                "--samples",
                "50000",
                "--out",
                str(tmp_path / "v"),
            ]
        )
        assert rc == 0
        assert "ks-two-sample" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [159, 205])
    def test_degenerate_rician_agrees_with_rayleigh_on_its_own_normals(
        self, tmp_path, capsys, seed
    ):
        # seeds whose Rayleigh reference, drawn from a stream of its own,
        # failed the two-sample check by chance
        argv = ["validate-channel", "--kind", "rician", "--amplitude", "0", "--sigma", "1"]
        argv += ["--samples", "2000", "--seed", str(seed), "--out", str(tmp_path / "v")]
        assert cli.main(argv) == 0
        assert "ks-two-sample[vs rayleigh]: statistic=0 p=1\n" in capsys.readouterr().out

    def test_wrong_reference_scale_exits_4(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = cli.main(
            [
                "validate-channel",
                "--kind",
                "rayleigh",
                "--sigma",
                "1.0",
                "--reference-sigma",
                "1.2",
                "--samples",
                "50000",
                "--out",
                str(out),
            ]
        )
        assert rc == 4
        assert "statistical check failed" in capsys.readouterr().err
        # evidence is still written for the failed run
        assert (out / "channel_pdf.csv").exists()

    def test_failed_quadrature_check_leaves_evidence(self, tmp_path, capsys, monkeypatch):
        sample = cli.sample_awgn_batch
        monkeypatch.setattr(cli, "sample_awgn_batch", lambda *args: 1.2 * sample(*args))
        out = tmp_path / "v"
        argv = ["validate-channel", "--kind", "awgn", "--samples", "50000", "--out", str(out)]
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: statistical check failed")
        assert "real quadrature variance" in err[0] and "imag quadrature variance" in err[0]
        assert captured.out.count("check quadrature-variance") == 2
        assert (out / "channel_pdf.csv").exists() and (out / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["rayleigh", "awgn", "rician"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_reference_sigma_exits_2(self, tmp_path, capsys, kind, sigma):
        out = tmp_path / "v"
        argv = ["validate-channel", "--kind", kind, "--reference-sigma", sigma]
        rc = cli.main(argv + ["--samples", "1000", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sigma" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_strong_line_of_sight_passes(self, tmp_path, capsys):
        # A/sigma = 40, where scipy's Rician mean is NaN
        out = tmp_path / "v"
        argv = ["validate-channel", "--kind", "rician", "--amplitude", "40", "--sigma", "1"]
        assert cli.main(argv + ["--samples", "10000", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "check mean: 39.9906 expected 40.0125" in stdout and "pass" in stdout

    @pytest.mark.parametrize(
        "law",
        [
            ["--amplitude", "100.5", "--sigma", "1"],
            ["--amplitude", "1e308", "--sigma", "1e-300"],
            ["--amplitude", "50", "--sigma", "1", "--reference-sigma", "0.25"],
        ],
        ids=["past-bound", "overflowing-ratio", "reference-sigma"],
    )
    def test_reference_law_beyond_bound_exits_2_promptly(self, tmp_path, capsys, law):
        out = tmp_path / "v"
        t0 = time.perf_counter()
        rc = cli.main(["validate-channel", "--kind", "rician", *law, "--out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: amplitude / sigma must be <= 100")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_too_few_samples_exits_2(self, tmp_path):
        rc = cli.main(
            [
                "validate-channel",
                "--kind",
                "rayleigh",
                "--samples",
                "10",
                "--out",
                str(tmp_path / "v"),
            ]
        )
        assert rc == 2


class TestQosReliability:
    def run(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out.splitlines(), captured.err

    def test_all_ones(self, capsys):
        rc, out, _ = self.run(
            ["qos-reliability", "1", "1", "1", "1", "--samples", "1000"], capsys
        )
        assert rc == 0
        assert out[0] == (
            "alpha,beta,gamma,delta,R_closed_form,R_monte_carlo,mc_standard_error,n_runs"
        )
        f = out[1].split(",")
        assert float(f[4]) == 1.0 and float(f[5]) == 1.0 and f[7] == "1000"

    def test_mc_tracks_closed_form(self, capsys):
        rc, out, _ = self.run(
            ["qos-reliability", "0.9", "0.9", "0.9", "0.9", "--samples", "200000"], capsys
        )
        assert rc == 0
        f = out[1].split(",")
        closed, mc, se = float(f[4]), float(f[5]), float(f[6])
        assert closed == pytest.approx(0.6561 / 0.9999, rel=1e-9)
        assert abs(mc - closed) <= 3.0 * se

    def test_out_of_range_exits_2(self, capsys):
        rc, _, err = self.run(["qos-reliability", "1.5", "1", "1", "1"], capsys)
        assert rc == 2
        assert err.startswith("error:")

    def test_deterministic_given_seed(self, capsys):
        argv = ["qos-reliability", "0.8", "0.7", "0.9", "0.6", "--samples", "5000", "--seed", "3"]
        _, first, _ = self.run(argv, capsys)
        _, second, _ = self.run(argv, capsys)
        assert first == second

    def test_tiny_leg_probabilities_exit_2_promptly(self, capsys):
        # every run would be redrawn ~2.5e8 times before its first outcome
        t0 = time.perf_counter()
        rc, out, err = self.run(["qos-reliability", *["1e-9"] * 4, "--samples", "10"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == []
        assert err.startswith("error:") and len(err.splitlines()) == 1


HOPS_HEADER = (
    "distance_m,propagation_speed_mps,packet_length_bits,link_rate_bps,hop_weight,"
    "processing_delay_ms,arrival_rate_pps,service_rate_pps,loss_prob,retx_base_ms"
)


class TestRtt:
    def hops_file(self, tmp_path, rows):
        p = tmp_path / "hops.csv"
        p.write_text("\n".join([HOPS_HEADER, *rows]) + "\n")
        return str(p)

    def test_single_hop_hand_oracle(self, tmp_path, capsys):
        # 2*(0.0001 + 1 + 0.8 + 2) + 0.5/(1-0.2) = 8.2252 ms
        path = self.hops_file(tmp_path, ["30,3e8,1000,1e6,1,0.8,500,1000,0.2,0.5"])
        assert cli.main(["rtt", "--hops", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "hop,propagation_ms,transmission_ms,processing_ms,queueing_ms,"
            "retransmission_ms,rtt_ms"
        )
        assert float(lines[1].split(",")[-1]) == pytest.approx(8.2252, rel=1e-12)
        assert lines[2].startswith("total,")

    def test_total_adds_across_hops(self, tmp_path, capsys):
        path = self.hops_file(
            tmp_path,
            [
                "30,3e8,1000,1e6,1,0.8,500,1000,0.2,0.5",
                "1000,2e8,2000,5e6,2,0.1,100,400,0.0,0.0",
            ],
        )
        assert cli.main(["rtt", "--hops", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        per_hop = [float(l.split(",")[-1]) for l in lines[1:3]]
        total = float(lines[3].split(",")[-1])
        assert total == pytest.approx(sum(per_hop), rel=1e-12)

    def test_empty_hop_list_total_zero(self, tmp_path, capsys):
        path = self.hops_file(tmp_path, [])
        assert cli.main(["rtt", "--hops", path]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "total,0,0,0,0,0,0"

    def test_saturated_hop_exits_3(self, tmp_path, capsys):
        path = self.hops_file(tmp_path, ["30,3e8,1000,1e6,1,0.8,1000,1000,0,0"])
        assert cli.main(["rtt", "--hops", path]) == 3
        assert "instability" in capsys.readouterr().err

    def test_wrong_header_exits_2(self, tmp_path, capsys):
        p = tmp_path / "hops.csv"
        p.write_text("a,b,c\n1,2,3\n")
        assert cli.main(["rtt", "--hops", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestQueue:
    def test_matches_module_oracle(self, capsys):
        rc = cli.main(["queue", "--lam", "8", "--mu", "5", "--servers", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda,mu,c,erlang_c,Wq"
        f = lines[1].split(",")
        params = QueueParams(lam=8.0, mu=5.0, servers=2)
        assert float(f[3]) == pytest.approx(erlang_c_probability(params), rel=1e-9)
        assert float(f[4]) == pytest.approx(mean_wait_in_queue(params), rel=1e-9)

    def test_erlang_c_computed_once(self, capsys, monkeypatch):
        # W_q reuses C(c, rho), which is O(rho) at large loads
        from iiot_netsim import queueing_model

        calls = []

        def counted(params):
            calls.append(params)
            return erlang_c_probability(params)

        monkeypatch.setattr(cli, "erlang_c_probability", counted)
        monkeypatch.setattr(queueing_model, "erlang_c_probability", counted)
        assert cli.main(["queue", "--lam", "8", "--mu", "5", "--servers", "2"]) == 0
        assert len(calls) == 1
        wq = capsys.readouterr().out.splitlines()[1].split(",")[4]
        assert wq == cli._fmt(mean_wait_in_queue(QueueParams(lam=8.0, mu=5.0, servers=2)))

    def test_load_past_the_float_range_prints_finite_values(self, capsys):
        rc = cli.main(["queue", "--lam", "1000", "--mu", "1", "--servers", "1001"])
        assert rc == 0
        erlang_c, wq = map(float, capsys.readouterr().out.splitlines()[1].split(",")[3:])
        assert 0.0 < erlang_c < 1.0
        assert 0.0 < wq < math.inf

    def test_unstable_exits_3_without_partial_output(self, capsys):
        rc = cli.main(["queue", "--lam", "10", "--mu", "5"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "instability" in captured.err

    def test_load_past_the_erlang_bound_exits_2_at_once(self, capsys):
        # used to loop once per server in the Erlang B recursion, ~2 minutes
        t0 = time.perf_counter()
        rc = cli.main(["queue", "--lam", "5e8", "--mu", "1", "--servers", "1000000000"])
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: Erlang C refused")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lam,mu", [("3", "inf"), ("inf", "3"), ("nan", "3"), ("3", "nan")])
    def test_non_finite_rate_exits_2(self, capsys, lam, mu):
        rc = cli.main(["queue", "--lam", lam, "--mu", mu])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestParserSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["simulate", "--help"],
            ["compare-fading", "--help"],
            ["validate-channel", "--help"],
            ["qos-reliability", "--help"],
            ["rtt", "--help"],
            ["queue", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--version"])
        assert e.value.code == 0


def _rayleigh(doc):
    doc.update(fading="rayleigh", fading_params={"sigma": 1.0}, noise_n0=2.540456)


class TestOutputFiles:
    @pytest.mark.parametrize(
        "config,edit",
        [("default_simulate.json", None), ("default_compare.json", _rayleigh)],
        ids=["lossless", "lossy"],
    )
    def test_summary_folds_from_the_windows(self, tmp_path, monkeypatch, config, edit):
        # rtt_summary.csv is the exact fold of the windows: no second pass
        # over the records, and the bytes summarize_rtt of them gives
        calls = []

        def counting(records):
            calls.append(len(records))
            return summarize_rtt(records)

        monkeypatch.setattr(reporting, "summarize_rtt", counting)
        monkeypatch.setattr(cli, "summarize_rtt", counting, raising=False)
        doc = load_doc(config)
        if edit:
            edit(doc)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        assert calls == []
        records = run_simulation(cli.build_config(doc)[0]).records
        assert edit is None or not records.delivered.all()
        want = rtt_summary_to_csv(summarize_rtt(records))
        assert (out / "rtt_summary.csv").read_bytes() == want.encode()

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "intervals.csv").mkdir(parents=True)
        cfg = str(shipped("default_simulate.json"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert [p.name for p in out.iterdir()] == ["intervals.csv"]

    def test_failed_write_leaves_the_old_file_and_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_bytes(b"old\n")

        def disk_full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as m:
            m.setattr(cli.os, "write", disk_full)
            with pytest.raises(OSError, match="No space left"):
                cli._write_atomic(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
        assert path.read_bytes() == b"old\n"

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        # os.write may take fewer bytes than it is given
        real_write = os.write
        text = "time_s,\u03a9-ideal_ms\n" * 50
        with monkeypatch.context() as m:
            m.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:7]))
            cli._write_atomic(tmp_path / "f.csv", text)
        assert (tmp_path / "f.csv").read_bytes() == text.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_out_dir_is_made_only_when_missing(self, tmp_path, monkeypatch, capsys):
        made = []
        real_mkdir = Path.mkdir

        def counting(self, *args, **kwargs):
            made.append(self.name)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting)
        cfg = str(shipped("default_simulate.json"))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert made == ["o"]
        # a path that exists as a file is not a directory: exit 2
        (tmp_path / "f").write_bytes(b"")
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["simulate", "rtt"])
    def test_input_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "in"
        path.write_bytes(b'{"seed": "\xff"}\n')
        out = tmp_path / "o"
        argv = {"simulate": ["simulate", "--config", str(path), "--out", str(out)],
                "rtt": ["rtt", "--hops", str(path)]}[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        # a label outside ASCII, read and printed and written under the C
        # locale with no coercion, gives the bytes of a UTF-8 run
        doc = load_doc("default_compare.json")
        doc["comparison"]["kinds"][0]["label"] = "\u03a9-ideal"
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        src = str(Path(cli.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items()
                if k != cli.SEED_ENV_VAR and not k.startswith(("LC_", "LANG", "PYTHON"))}

        def run(name, **env):
            proc = subprocess.run(
                [sys.executable, "-m", "iiot_netsim.cli", "compare-fading",
                 "--config", str(cfg), "--out", str(tmp_path / name)],
                env={**base, "PYTHONPATH": src, **env}, capture_output=True, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            manifest = json.loads((tmp_path / name / "manifest.json").read_bytes())
            manifest.pop("wall_clock_s")
            return proc.stdout, (tmp_path / name / "fading_table.csv").read_bytes(), manifest

        c_locale = run("c", LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        utf8 = run("utf8", PYTHONUTF8="1")
        assert c_locale == utf8
        assert "\u03a9-ideal_ms".encode("utf-8") in utf8[0] and utf8[1].startswith(
            "time_s,\u03a9-ideal_ms,".encode("utf-8")
        )
