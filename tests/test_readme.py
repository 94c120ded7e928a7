"""README's Quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    # the first print is the multiplicity the comment beside it states
    assert capsys.readouterr().out.split("\n")[0] == "2"
