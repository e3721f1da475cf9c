"""The package namespace: a short, resolvable public API."""

import contextlib
import io
import re
from pathlib import Path

import edgeray


def test_all_names_resolve_once_and_stay_few():
    names = edgeray.__all__
    assert len(names) == len(set(names))
    assert len(names) <= 40
    for name in names:
        assert getattr(edgeray, name) is not None, name


def test_readme_library_example_runs():
    """The README's python block runs as written against the package."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    lines = out.getvalue().splitlines()
    assert "0 0 incident data" in lines
    assert any(line.endswith("(dirty partner)") for line in lines)
