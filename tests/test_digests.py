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
    "fanin_many_nodes": "c36c34691947fa481fd6924b1b3eb731e5f77f2ced157ebaf25f821c283c67d8",
    "burst_few_nodes": "3fbae0de6e673535134313bda7270e5a930077b62707a67012972c43aecb406e",
    "fading_compare": "97bb733739455c12b1e1ae4f97ef62ede9a1b9b6fc2de833cac35b0d778c620e",
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
        "17772ee194e6ad3505f72bad610862c40fdb4c2b19e9bfea0919630bec4b573e"
    ),
    ("simulate", "high_load_trend.json"): (
        "8d17b4e857c6939d03e4c176461a38caa6eaf40568e565cab5a0715d7d19c374"
    ),
    ("compare-fading", "default_compare.json"): (
        "dbdc04b4c53ace5217e8fac86fd606388a7818c65b16b8373af1b218f9f7e871"
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
