"""The README stays in step with the code: its configuration table names
exactly the RunConfig fields, and its library example runs as written."""

import re
from dataclasses import fields
from pathlib import Path

from sqgd.config import RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title):
    """The README text from the heading ``title`` to the next heading."""
    start = README.index(f"{title}\n")
    end = README.find("\n#", start + len(title))
    return README[start:] if end < 0 else README[start:end]


def test_configuration_table_names_every_field():
    rows = [line for line in section("### Configuration").splitlines()
            if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


def test_library_use_runs(capsys):
    block = re.search(r"```python\n(.*?)```", section("## Library use"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
