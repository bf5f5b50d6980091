"""The README's code runs as written, so the documented API cannot drift."""

import math
import re
import shlex
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


def test_cli_examples_parse_as_written(monkeypatch):
    # The commands are parsed, not run: each subcommand returns at once.
    from fedspike import cli

    ran = []
    for name in ("_cmd_simulate", "_cmd_realdata", "_cmd_rates"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args.command) or 0)
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("fedspike ")]
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert ran == [line.split()[1] for line in lines]
    assert set(ran) == {"simulate", "realdata", "rates"}
