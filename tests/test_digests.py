"""Pinned simulated output: the benchmark workloads and the shipped configs.

Each workload's seed-401 iteration must pass the benchmark's correctness
gate and reproduce the `sim_digest` recorded in perfbench/README.md, so a
change that moves any simulated number, or breaks a program entry point
the benchmark calls, fails here without a benchmark run.  Each shipped
config, run by its command at its own seed, must reproduce the digest of
its stdout and CSVs (the manifest is left out: it holds the wall clock).
"""
import hashlib
from importlib import resources

import pytest

from iiot_netsim import cli
from perfbench import run, workloads

SEED = 401
DIGESTS = {
    "fanin_many_nodes": "cb42785fcf6c38d1a76f25df32f8f1604b68bd3ad906545a014a9a685d72549a",
    "burst_few_nodes": "d7a19a6766e08ebec654f4c75d5c9d326e3938dc7c3c02420647c764d3644bb0",
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
        "214b874bbdc4196b2de126389f93d5d6de8985490026eab836f345e7765ed16f"
    ),
    ("simulate", "high_load_trend.json"): (
        "3e1e88ee1c170c39507b455c9d2aae6553f7fd98b3bafa322fbaa490eb7fe852"
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
