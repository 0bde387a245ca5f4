"""Every Markdown file the code names exists.

A docstring or comment that sends the reader to a document the
repository does not have is a dead end, so each ``*.md`` name that a
Python file under ``src/``, ``examples/``, ``benchmarks/`` or ``tests/``
mentions must resolve, either from the repository root or from the
naming file's own directory.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "examples", "benchmarks", "tests")
MARKDOWN_NAME = re.compile(r"[\w./-]+\.md\b")


def named_markdown():
    """``(python file, line number, name)`` for every Markdown name."""
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for name in MARKDOWN_NAME.findall(line):
                    yield path, number, name


def test_every_named_markdown_file_exists():
    missing = [
        f"{path.relative_to(ROOT)}:{number}: {name}"
        for path, number, name in named_markdown()
        if not ((ROOT / name).is_file() or (path.parent / name).is_file())
    ]
    assert not missing, "names of Markdown files that do not exist:\n" + "\n".join(missing)

