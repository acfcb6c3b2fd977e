"""The library quickstart in README.md runs against the package as it is,
and its export list names what the package exports."""

import re
from pathlib import Path

import wfamin

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # it prints whether the AAK error is sigma_1, then the certified error
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "True" and len(printed) == 2


def test_export_list_names_exactly_the_package_exports():
    text = README.read_text()
    start = text.index("`wfamin` exports the entry points only:")
    section = text[start : text.index("Everything else is reachable", start)]
    # the list's first line names the package itself
    names = set(re.findall(r"`(\w+)`", section.split("\n", 1)[1]))
    assert names == set(wfamin.__all__)
