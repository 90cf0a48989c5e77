"""Pinned simulated output: the benchmark workloads and the shipped configs.

Each workload's seed-401 iteration must pass the benchmark's correctness
gate and reproduce its `sim_digest` pinned here, so a change that moves
any simulated number, or breaks a program entry point the benchmark
calls, fails here without a benchmark run.  Each shipped config, run by
its command at its own seed, must reproduce the digest of its stdout and
CSVs (the manifest is left out: it holds the wall clock).
"""
import hashlib
from importlib import resources

import pytest

from iiot_netsim import cli
from perfbench import run, workloads

SEED = 401
DIGESTS = {
    "fanin_many_nodes": "e8e26a14a48b26aa773fdac241d5e91dea5cc702788880271aba5e7eebf91d55",
    "burst_few_nodes": "551af2d5aedb66817789165ab7928c368cf7aa4f17b2a435aa19d963ed9f3768",
    "fading_compare": "6c5eddbc0234a80ac292a42cfa7c3137266d90a5d9023e15c9d413dd27c0e009",
    "model_validation": "528e58499c505e232556038d697e939b624df897746e2bd1020aa21d0edec1ed",
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_401_digest(name, tmp_path):
    wl = workloads.generate(name, SEED, tmp_path / "inputs")
    _seconds, items, digest, errors = run.Runner(wl, tmp_path / "outputs").iteration()
    assert errors == []
    assert items > 0
    assert digest == DIGESTS[name]


SHIPPED = {
    ("simulate", "default_simulate.json"): (
        "9092829644c25dbc5d97884fd2a418f1a315a56819e949cdf0e7c226a3324e53"
    ),
    ("simulate", "high_load_trend.json"): (
        "30458824b7f07573dcbf6c025ef0b80a3f8a778adcbfa58f6fda996cc19de275"
    ),
    ("compare-fading", "default_compare.json"): (
        "da8b460ccd80b6ba9873724bb1cea3bde363ba12c059c7fb40cff3b25fefb7ee"
    ),
}


@pytest.mark.parametrize("command,config", SHIPPED)
def test_shipped_config_output(command, config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    path = resources.files("iiot_netsim") / "configs" / config
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for csv in sorted(out.glob("*.csv")):
        digest.update(csv.name.encode())
        digest.update(csv.read_bytes())
    assert digest.hexdigest() == SHIPPED[(command, config)]
