"""The README's code runs as written, so the documented API cannot drift."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block_under(heading: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(capsys):
    code = _python_block_under("Library quickstart")
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(math.isfinite(float(x)) and float(x) >= 0 for x in printed)
