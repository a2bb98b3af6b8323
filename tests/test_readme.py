"""The README's `## Library` section is the documented API: run its example
and hold the package's exports to the names it lists."""

import re
from pathlib import Path

import fitroute

README = Path(__file__).parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    assert isinstance(scope["outcome"], fitroute.Route)
    assert scope["report"].summary.violations == ()


def test_exports_are_the_documented_names():
    section = library_section()
    listing = section.split("The package exports exactly these names:")[1]
    listing = listing.split("\n\n")[1]
    documented = re.findall(r"`(\w+)`", listing)
    assert len(documented) == len(set(documented))
    assert sorted(fitroute.__all__) == sorted(documented)
    assert all(hasattr(fitroute, name) for name in documented)
