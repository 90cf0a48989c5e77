"""The README's library example and command lines run against the package
as it is, so a renamed function, field or flag fails here instead of
leaving the README stale."""
import json
import re
import shlex
from pathlib import Path

import pytest

from iiot_netsim import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_surface_block() -> str:
    """The first python block under the README's "Library surface" heading."""
    section = README.read_text().split("\n## Library surface\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_surface_block_runs():
    namespace = {"__name__": "readme"}
    exec(compile(library_surface_block(), str(README), "exec"), namespace)
    assert namespace["summary"].count > 0
    assert namespace["table_ms"].shape == (2, 2)


def command_lines() -> list:
    """Each iiot-netsim line of the "Command line" sh block, as a param of
    (argv, the exit code its comment states: N for "exits N", else 0)."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    lines = []
    for line in block.splitlines():
        if line.startswith("iiot-netsim "):
            command, _, comment = line.partition("#")
            code = re.search(r"\bexits (\d+)", comment)
            argv = shlex.split(command)[1:]
            lines.append(pytest.param(argv, int(code[1]) if code else 0, id=command.strip()))
    return lines


def test_command_line_block_is_found():
    # an empty parametrize below would skip, not fail
    assert command_lines()


@pytest.mark.parametrize("argv,code", command_lines())
def test_command_line_block_runs(tmp_path, monkeypatch, argv, code):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    doc = json.loads((ROOT / "src/iiot_netsim/configs/default_simulate.json").read_text())
    hop = ",".join(str(doc["base_hop"][k]) for k in cli.HOPS_CSV_HEADER.split(","))
    (tmp_path / "hops.csv").write_text(f"{cli.HOPS_CSV_HEADER}\n{hop}\n")
    # outputs and hops.csv live in tmp_path; shipped configs are read from the repo
    argv = [
        str(tmp_path / a) if a.startswith("out/") or a == "hops.csv"
        else str(ROOT / a) if a.startswith("src/") else a
        for a in argv
    ]
    assert cli.main(argv) == code
