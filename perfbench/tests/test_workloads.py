import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_writes_byte_identical_inputs(name, tmp_path):
    a = workloads.generate(name, 11, tmp_path / "a")
    b = workloads.generate(name, 11, tmp_path / "b")
    c = workloads.generate(name, 12, tmp_path / "c")
    for suffix in ("config.json", "plan.json"):
        first = (tmp_path / "a" / f"{name}.{suffix}").read_bytes()
        assert first == (tmp_path / "b" / f"{name}.{suffix}").read_bytes()
    assert a.config_path.read_bytes() != c.config_path.read_bytes()
    assert 0.0 < a.plan["offered_utilization_peak"] < 1.0


def test_rejects_unknown_workload(tmp_path):
    with pytest.raises(ValueError):
        workloads.generate("nope", 1, tmp_path)
