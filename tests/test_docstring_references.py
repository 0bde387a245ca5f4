"""Every ``:func:``, ``:meth:`` and ``:class:`` target in ``src/`` docstrings resolves.

A docstring that cites a function, method or class by name keeps
pointing at it after a rename or a move only if something checks it.
This test parses every module under ``src/repro`` and resolves each
such reference the way a reader would: a dotted ``repro.`` path by
import, and any other name first in the module whose docstring cites
it, then on that module's classes, then among the builtins; further
dotted parts are attributes.  The ``title <target>`` form resolves its
target, and a leading ``~`` or ``!`` is dropped.  ``:attr:`` and
``:data:`` are left out: instance attributes exist only on instances.
"""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROLE = re.compile(r":(func|meth|class):`([^`]+)`")


def references():
    """``(module name, path:line, target)`` of every reference in ``src/``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if ast.get_docstring(node, clean=False) is None:
                continue
            literal = node.body[0].value
            for match in ROLE.finditer(literal.value):
                line = literal.lineno + literal.value[: match.start()].count("\n")
                yield module, f"{path.relative_to(SRC.parent)}:{line}", match.group(2)


def target_of(text):
    """The dotted name a role's text cites."""
    title = re.fullmatch(r"(.*?)<(.+)>", text.strip(), re.S)
    if title:
        text = title.group(2)
    name = re.sub(r"\s+", "", text).lstrip("~!")
    return name[:-2] if name.endswith("()") else name


def resolve(module_name, name):
    """The object ``name`` cites from module ``module_name``, or raise."""
    first, *rest = name.split(".")
    if first == "repro":
        for cut in range(len(rest), 0, -1):
            try:
                found = importlib.import_module(".".join([first, *rest[:cut]]))
            except ImportError:
                continue
            rest = rest[cut:]
            break
        else:
            raise LookupError(f"no module on the path {name}")
    else:
        module = importlib.import_module(module_name)
        classes = [
            value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module_name
        ]
        for scope in [module, *classes, builtins]:
            if hasattr(scope, first):
                found = getattr(scope, first)
                break
        else:
            raise LookupError(f"{first} is not in {module_name}, its classes or builtins")
    for part in rest:
        found = getattr(found, part)
    return found


def unresolved(refs):
    """The ``path:line role-target`` of each reference that does not resolve."""
    missing = []
    for module, where, text in refs:
        try:
            resolve(module, target_of(text))
        except (LookupError, AttributeError) as error:
            missing.append(f"{where} {text!r}: {error}")
    return missing


def test_every_cross_reference_resolves():
    refs = list(references())
    assert len(refs) > 300  # the extractor still finds the docstrings' roles
    assert unresolved(refs) == []


def test_a_reference_that_moved_is_reported():
    refs = [
        ("repro.core.masking", "masking.py:1", "MaskSpec.iter_chunks"),
        ("repro.core.masking", "masking.py:2", "~repro.core.fleet.FleetExecutor._masked_windows"),
        ("repro.hw.tpu", "tpu.py:3", "Device"),
        ("repro.core.masking", "masking.py:4", "no such title <repro.core.gone.score_plan>"),
        ("repro.core.masking", "masking.py:5", "the builder <masked_windows>"),
        ("repro.core.fleet", "fleet.py:6", "~repro.hw.interconnect.Interconnect\n  .all_reduce_seconds"),
        ("repro.core.fleet", "fleet.py:7", "len"),
    ]
    assert [line.split(" ")[0] for line in unresolved(refs)] == [
        "masking.py:1", "masking.py:2", "tpu.py:3", "masking.py:4",
    ]
