"""Every CLI run that README.md spells out names a real command and a shipped config,
and its Library example runs as written."""

import re
from pathlib import Path

from nsdde_sim.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
RUN = re.compile(r"nsdde-sim\s+(\S+)\s+--config\s+configs/([\w.-]+)\.json")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_readme_runs_name_real_commands_and_configs():
    runs = RUN.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert runs, "README.md names no nsdde-sim run"
    assert [cmd for cmd, _ in runs if cmd not in _COMMANDS] == []
    assert [stem for _, stem in runs if not (ROOT / "configs" / f"{stem}.json").is_file()] == []


def test_readme_runs_every_shipped_config():
    named = {stem for _, stem in RUN.findall((ROOT / "README.md").read_text(encoding="utf-8"))}
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.json") if p.stem not in named) == []


def test_readme_library_block_runs():
    sections = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## ")
    (library,) = [part for part in sections if part.startswith("Library\n")]
    block = PYTHON_BLOCK.search(library)
    assert block, "README.md has no python block under ## Library"
    exec(compile(block.group(1), "README.md (## Library)", "exec"), {})
