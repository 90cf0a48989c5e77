import time

from perfbench import run


class _SleepRunner:
    """Stands in for run.Runner: every iteration passes after a short sleep."""

    reference_digest = None

    def iteration(self):
        time.sleep(0.01)
        return 0.01, 1, "digest", []


def test_short_run_reports_no_p90_and_is_not_correct(monkeypatch):
    # too short for 100 samples even after MAX_STRETCH: the p90 is withheld
    monkeypatch.setattr(run, "measure_setup", lambda path: 1.0)
    loop = run.Loop(_SleepRunner())
    metrics = run.run_end_to_end(type("Wl", (), {"config_path": None}), loop, 0.1)
    assert "iter_s_p50" in metrics
    assert "iter_s_p90" not in metrics and "host.iter_s_p90" not in metrics
    assert loop.failed == 0
    assert any(m.startswith("iter_s_p90:") for m in loop.check_errors)
