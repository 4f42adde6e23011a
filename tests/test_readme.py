"""The minimal example of README.md runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(blocks[0], str(README), "exec"), scope)
    eta_h = scope["out"].result.eta_h
    assert math.isfinite(eta_h) and eta_h > 0
    assert printed.getvalue().split()[0] == repr(eta_h)
