"""The package namespace and the README quickstart."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import dctcsim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_matches_public_bindings():
    bound = {name for name, value in vars(dctcsim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(dctcsim.__all__) == sorted(bound)


def test_readme_quickstart_prints_what_it_says():
    # Each print(...) line's "# " comment, cut at the first " (", is the line it
    # prints; a comment that starts with "~" is a number, compared within 1e-12.
    code = "".join(re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S))
    claims = [line.split("# ", 1)[1].split(" (", 1)[0].strip()
              for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims) == 7
    for got, claim in zip(printed, claims):
        if claim.startswith("~"):
            assert abs(float(got) - float(claim[1:])) <= 1e-12, (got, claim)
        else:
            assert got == claim
