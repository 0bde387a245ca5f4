"""Test-suite configuration.

Puts the repository root on ``sys.path`` so test modules in any
sub-directory import the shared literal reference as
``tests.reference``, and registers the ``deep`` Hypothesis profile
(1000 examples per property, no deadline) without loading it: select it
with ``--hypothesis-profile=deep``.
"""

import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
