"""The README's library example runs against the package as it is, so a
renamed function or field fails here instead of leaving the README stale."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_surface_block() -> str:
    """The first python block under the README's "Library surface" heading."""
    section = README.read_text().split("\n## Library surface\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_surface_block_runs():
    namespace = {"__name__": "readme"}
    exec(compile(library_surface_block(), str(README), "exec"), namespace)
    assert namespace["summary"].count > 0
    assert namespace["table_ms"].shape == (2, 2)
