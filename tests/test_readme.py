"""The library quickstart in README.md runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # it prints whether the AAK error is sigma_1, then the certified error
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "True" and len(printed) == 2
