"""The README's library session and CLI block run: each line the session
prints matches the comment on the statement that prints it, and each CLI
line exits 0 and prints what its `# -> ...` comment says, where it has one."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from kronquiver import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_session():
    text = README.read_text()
    (session,) = re.findall(r"A quick library session:\n\n```python\n(.*?)```", text, re.S)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.+)$", session, re.M)]
    assert len(expected) == session.count("print(") > 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(session, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_cli_block():
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for line in block.splitlines() if line.startswith("kronquiver ")]
    assert lines
    for line in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        arrow = re.search(r"#\s*->\s*(.+)$", line)
        if arrow:
            assert out.getvalue() == arrow.group(1) + "\n", line
