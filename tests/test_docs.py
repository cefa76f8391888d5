"""README and the top-level API stay in step: its example runs as written,
and every name the package exports is named in it."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import nystrom_krr

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCED = re.compile(r"^```[a-z]*\n(.*?)^```", re.S | re.M)


def test_readme_api_example_runs():
    """The code block under "Minimal API example", taken from README itself,
    runs and prints m, the flop count and a finite L2 error."""
    section = README.split("### Minimal API example", 1)[1]
    code = FENCED.search(section).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    m, flops, error = out.getvalue().split()
    assert int(m) >= 1 and int(flops) > 0 and 0.0 < float(error) < 1.0


def test_every_exported_name_is_in_readme():
    """Each public name of ``nystrom_krr`` (not its submodules) appears in a
    code span or a code block of README."""
    code = " ".join(FENCED.findall(README) + re.findall(r"`([^`\n]+)`", FENCED.sub("", README)))
    words = set(re.findall(r"\w+", code))
    exported = [
        name
        for name, value in vars(nystrom_krr).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert exported and sorted(set(exported) - words) == []
