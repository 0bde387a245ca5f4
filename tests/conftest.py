"""Test-suite configuration.

Puts the repository root on ``sys.path`` so test modules in any
sub-directory import the shared literal reference as
``tests.reference``.
"""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
