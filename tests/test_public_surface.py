"""Every name the package exports has a caller outside the tests.

A name counts as used when it appears as a word in the package's own
modules (its `def` or `class` line and `__init__.py` not counted), in the
README, in the benchmark's scripts or in the CI workflows.  An export
that only tests reach is surface nothing needs.  `__version__` is
metadata that tools read, not a call, so dunder names are not checked.
"""

import re
from pathlib import Path

import pytest

import clusterbp

REPO = Path(__file__).resolve().parents[1]
OUTSIDE = [
    *(p for p in sorted(REPO.glob("src/clusterbp/*.py")) if p.name != "__init__.py"),
    REPO / "README.md",
    *sorted(REPO.glob("perfbench/*.py")),
    *sorted(REPO.glob(".github/workflows/*.yml")),
]
LINES = [line for path in OUTSIDE for line in path.read_text().splitlines()]


@pytest.mark.parametrize(
    "name", [name for name in clusterbp.__all__ if not name.startswith("__")]
)
def test_every_export_has_a_caller_outside_the_tests(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
    assert any(
        word.search(line) and not definition.match(line) for line in LINES
    ), f"{name} is exported, but only tests use it"
