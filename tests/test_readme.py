"""The README's library example runs, and it shows the whole root surface."""

import re
from pathlib import Path

import pufledger

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_and_root_exports_only_it(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)  # the example writes its artifacts to ./out
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "out" / "metrics.json").exists()
    assert pufledger.__all__ == ["ScenarioConfig", "run_scenario"]
