"""The README's Python example runs against the current library API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    streams, cutset, max_err = capsys.readouterr().out.split()
    assert streams == cutset == "12"
    assert float(max_err) <= 1e-8
