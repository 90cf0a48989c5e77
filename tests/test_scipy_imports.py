"""scipy is loaded only by the functions that call it, checked in fresh interpreters.

Each check runs in a subprocess with only src/ on the path, because other
test modules import scipy at module level and would hide a regression
in this process.  The smoke tests call each function that imports scipy
in an interpreter where nothing loaded scipy before it, so a scipy name
used where it is not imported fails there.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = SRC / "iiot_netsim" / "configs"

PRELUDE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

"""


def run_fresh(snippet: str, tmp_path: Path, **names) -> dict:
    """Run snippet in a new interpreter; return its `result` repr and loaded scipy modules."""
    assigns = "".join(f"{k} = {v!r}\n" for k, v in names.items())
    code = (
        PRELUDE
        + assigns
        + snippet
        + "\nprint(json.dumps({'result': repr(result), 'scipy': scipy_modules()}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "IIOT_NETSIM_SEED"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(modules: list[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


# ---- guard: no scipy unless the run needs it -------------------------------


def test_importing_package_and_cli_loads_no_scipy(tmp_path):
    got = run_fresh(
        "import iiot_netsim\n"
        "after_package = scipy_modules()\n"
        "import iiot_netsim.cli\n"
        "result = (after_package, 'numpy' in sys.modules)\n",
        tmp_path,
    )
    assert got["result"] == repr(([], True))
    assert got["scipy"] == []


RUN_CLI = """\
import contextlib, io
from iiot_netsim import cli
with contextlib.redirect_stdout(io.StringIO()):
    result = cli.main(ARGV)
"""


def test_simulate_on_an_ideal_channel_loads_no_scipy(tmp_path):
    argv = ["simulate", "--config", str(CONFIGS / "default_simulate.json"), "--out", "sim"]
    got = run_fresh(RUN_CLI, tmp_path, ARGV=argv)
    assert got["result"] == "0"
    assert got["scipy"] == []


def test_lossy_compare_fading_loads_only_scipy_special(tmp_path):
    argv = ["compare-fading", "--config", str(CONFIGS / "default_compare.json"), "--out", "cmp"]
    got = run_fresh(RUN_CLI, tmp_path, ARGV=argv)
    assert got["result"] == "0"
    assert loaded(got["scipy"], "scipy.special")
    assert not loaded(got["scipy"], "scipy.stats")


# ---- smoke: each function imports what it uses ------------------------------

VALIDATE_CHANNEL = """\
import contextlib, io
from pathlib import Path
from iiot_netsim import cli
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    rc = cli.main([
        "validate-channel", "--kind", "rician", "--amplitude", "0", "--sigma", "2",
        "--samples", "20000", "--seed", "5", "--out", OUT,
    ])
assert rc == 0 and "ks-two-sample" in stdout.getvalue()
result = (rc, stdout.getvalue(), (Path(OUT) / "channel_pdf.csv").read_text())
"""

PER_PACKET_ERROR = """\
import numpy as np
from iiot_netsim.sim_engine import per_packet_error_probability
result = per_packet_error_probability(
    np.array([0.0, 1e-3, 0.05, 0.1, 1.0, 3.7, 1e3, np.inf]), -10.0
).tolist()
"""

RICIAN_MEAN = """\
from iiot_netsim.channel_models import RicianParams, rician_mean
result = [rician_mean(RicianParams(amplitude=a, sigma=1.0)) for a in (0.0, 1.0, 40.0, 1e9)]
"""


@pytest.mark.parametrize(
    "snippet,needs",
    [
        (VALIDATE_CHANNEL, "scipy.stats"),
        (PER_PACKET_ERROR, "scipy.special"),
        (RICIAN_MEAN, "scipy.special"),
    ],
    ids=["validate-channel", "per_packet_error_probability", "rician_mean"],
)
def test_fresh_call_matches_in_process_call(tmp_path, monkeypatch, snippet, needs):
    monkeypatch.delenv("IIOT_NETSIM_SEED", raising=False)
    got = run_fresh(snippet, tmp_path, OUT=str(tmp_path / "fresh"))
    here = {"OUT": str(tmp_path / "here")}
    exec(snippet, here)
    assert got["result"] == repr(here["result"])
    assert loaded(got["scipy"], needs)
