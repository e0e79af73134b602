"""Every name the package exports, and every option it offers, has a caller.

A name counts as used when it appears as a word in the package's own
modules (its `def` or `class` line and `__init__.py` not counted), in the
README, in the benchmark's scripts or in the CI workflows.  An export
that only tests reach is surface nothing needs.  `__version__` is
metadata that tools read, not a call, so dunder names are not checked.

Likewise each defaulted parameter of an exported function, of the
pipeline's `solve_problem` and `color_problem`, and of the constructor
and public methods of an exported class, must be passed by some call in
the package or the benchmark: an option only tests set is an option
nothing needs.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import clusterbp
from clusterbp.cli import color_problem, solve_problem

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


FUNCTIONS = {
    **{
        name: value
        for name, value in vars(clusterbp).items()
        if name in clusterbp.__all__ and inspect.isfunction(value)
    },
    "solve_problem": solve_problem,
    "color_problem": color_problem,
}
CLASSES = {
    name: value
    for name, value in vars(clusterbp).items()
    if name in clusterbp.__all__ and inspect.isclass(value)
}
# label -> (the name a call spells, the function, how many leading
# parameters, `self` or `cls`, no call passes).
CALLABLES = {
    **{name: (name, function, 0) for name, function in FUNCTIONS.items()},
    **{
        name: (name, getattr(cls, attr), 1)
        for name, cls in CLASSES.items()
        for attr in ("__init__", "__new__")
        if attr in vars(cls)
    },
    **{
        f"{name}.{attr}": (attr, value, 1)
        for name, cls in CLASSES.items()
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(value)
    },
}
CALLS = [
    node
    for path in [
        *sorted(REPO.glob("src/clusterbp/*.py")),
        *sorted(REPO.glob("perfbench/*.py")),
    ]
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.Call)
]


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize(
    "function, parameter",
    [
        (label, parameter.name)
        for label, (_, function, skip) in CALLABLES.items()
        for parameter in list(inspect.signature(function).parameters.values())[skip:]
        if parameter.default is not inspect.Parameter.empty
    ],
)
def test_every_option_is_passed_outside_the_tests(function, parameter):
    name, code, skip = CALLABLES[function]
    position = list(inspect.signature(code).parameters)[skip:].index(parameter)
    # Only parameters before the keyword-only ones can be passed by position.
    positional = code.__code__.co_argcount - skip
    assert any(
        called_name(call) == name
        and (
            any(keyword.arg == parameter for keyword in call.keywords)
            or position < min(len(call.args), positional)
        )
        for call in CALLS
    ), f"{function}({parameter}=) has a default, but only tests pass it"
