"""The README's library quick start runs as printed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start_runs(monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(ROOT)  # its preset path is relative to the repository root
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
