"""The README's library session runs, and each line it prints matches the
comment on the statement that prints it."""

import contextlib
import io
import re
from pathlib import Path

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
