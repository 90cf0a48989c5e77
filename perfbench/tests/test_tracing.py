import sys

import numpy as np
import pytest

import iiot_netsim.cli  # noqa: F401  (loads every layer module)
from perfbench import tracing


def _snapshot():
    """Every attribute of every package namespace and traced class."""
    from iiot_netsim.rng import RngStream
    from iiot_netsim.sim_engine import CentralServer

    mods = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "iiot_netsim" or name.startswith("iiot_netsim."))
    }
    classes = {cls: dict(vars(cls)) for cls in (RngStream, CentralServer)}
    return mods, classes


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; lone root [20, 21]
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    parent = np.array([-1, 0, 1, 0, -1])
    selfs = tracing.self_times(start, end, parent)
    assert selfs.tolist() == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0, 1.0]
    # self times of a tree add up to its root's duration
    assert selfs[:4].sum() == 10.0


def test_per_iteration_groups_spans_by_iteration_and_name():
    t = tracing.Tracer()
    for it in (0, 1):
        t.iteration_id = it
        outer = t.open("outer")
        for _ in range(it + 1):
            t.close(t.open("inner"))
        t.close(outer)
    t.iteration_id = 7  # not a listed iteration: left out
    t.close(t.open("outer"))
    table = t.per_iteration([0, 1])
    assert table["outer"]["calls"].tolist() == [1, 1]
    assert table["inner"]["calls"].tolist() == [1, 2]
    total = table["outer"]["total_s"]
    assert np.allclose(table["outer"]["self_s"] + table["inner"]["total_s"], total)


def test_install_wraps_imported_bindings_and_uninstall_restores_everything():
    from iiot_netsim import cli, rtt_model, sim_engine

    before = _snapshot()
    t = tracing.Tracer()
    t.install()
    try:
        assert sim_engine.compute_rtt is not before[0]["iiot_netsim.sim_engine"]["compute_rtt"]
        assert sim_engine.compute_rtt is rtt_model.compute_rtt  # one wrapper per function
        original = before[0]["iiot_netsim.sim_engine"]["run_simulation"]
        assert cli.run_simulation.__wrapped__ is original
        with pytest.raises(RuntimeError):
            t.install()
        hop = cli.parse_hop(
            {
                "distance_m": 30.0, "propagation_speed_mps": 3.0e8,
                "packet_length_bits": 1000.0, "link_rate_bps": 1.0e6, "hop_weight": 1.0,
                "processing_delay_ms": 0.2, "arrival_rate_pps": 60.0,
                "service_rate_pps": 1000.0, "loss_prob": 0.0, "retx_base_ms": 0.0,
            }
        )
        sim_engine.compute_rtt([hop])
    finally:
        t.uninstall()
    after = _snapshot()
    for side in (0, 1):
        assert before[side].keys() == after[side].keys()
        for owner, attrs in before[side].items():
            for attr, obj in attrs.items():
                assert after[side][owner][attr] is obj, (owner, attr)
    names = [t.names[i] for i in t.name_id]
    assert names == ["cli.parse_hop", "rtt_model.compute_rtt"]


def test_lazy_generator_traced_once_per_stream():
    from iiot_netsim.rng import RngStream

    t = tracing.Tracer()
    t.install()
    try:
        s = RngStream(1).child(2)
        s.gen.random()
        s.gen.random()
    finally:
        t.uninstall()
    assert [t.names[i] for i in t.name_id] == ["rng.RngStream.gen"]


def test_lazy_property_wrapper_traces_every_access_without_a_gen_slot():
    class Stream:
        __slots__ = ("built",)

        def __init__(self):
            self.built = 0

        @property
        def gen(self):
            self.built += 1
            return object()

    t = tracing.Tracer()
    Stream.gen = t._wrap_lazy_property(Stream.__dict__["gen"], "rng.RngStream.gen")
    s = Stream()
    s.gen
    s.gen
    assert s.built == 2
    assert [t.names[i] for i in t.name_id] == ["rng.RngStream.gen"] * 2
