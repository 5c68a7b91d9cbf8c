"""README's Python example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_example_prints_the_documented_partner_potential(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == expected[0]  # the partner potential
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed[1:], expected[1:]):  # "True, as an exact ..."
        assert want.startswith(got + ",")
