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
    "fanin_many_nodes": "605152c29503d446642ef29ea635708fbe9be0e33f3eaf54eb7636758f5810a1",
    "burst_few_nodes": "6e4b335fe02cdb28b13e30598024dca951db294ecf7530a5a6f7bf042c751993",
    "fading_compare": "fefb8d08a98ab4b02aad445287b7fe23bdd171a494fcb411d04330acd1d0ce31",
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
        "5b6449ad806c1002a17ac6fb0214fab798a9f341fcb83275c4cee0c9e88bb799"
    ),
    ("simulate", "high_load_trend.json"): (
        "be3c47aeabdad1242e1ae2304bd4d783fbb0aa1035c057e51310262362d59589"
    ),
    ("compare-fading", "default_compare.json"): (
        "5e8b50e90b2ef93e7e78da6cca1e064165c98f48fd86310dc5dce5898da32a98"
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
