"""Pinned simulated output: one checked benchmark iteration per workload.

Each workload's seed-401 iteration must pass the benchmark's correctness
gate and reproduce the `sim_digest` recorded in perfbench/README.md, so a
change that moves any simulated number, or breaks a program entry point
the benchmark calls, fails here without a benchmark run.
"""
import pytest

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
