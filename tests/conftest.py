"""Test-suite configuration.

Puts the repository root on ``sys.path`` so test modules in any
sub-directory import the shared literal reference as
``tests.reference``, and registers the ``deep`` Hypothesis profile
(1000 examples per property, no deadline) without loading it: select it
with ``--hypothesis-profile=deep``.  The ``padded_twins`` fixture is
shared by the digest tests, and ``check_pair_calls`` by the fleet and
service tests of the pair contract.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


@pytest.fixture
def check_pair_calls(monkeypatch):
    """The executor of every ``FleetExecutor.check_pair`` call, in order."""
    from repro.core.fleet import FleetExecutor

    calls = []
    check_pair = FleetExecutor.check_pair

    def counted(self, x, y):
        calls.append(self)
        return check_pair(self, x, y)

    monkeypatch.setattr(FleetExecutor, "check_pair", counted)
    return calls


@pytest.fixture(params=[np.longdouble, np.clongdouble], ids=lambda d: d.__name__)
def padded_twins(request):
    """Two equal ``longdouble`` or ``clongdouble`` planes whose padding
    bytes differ (skipped where ``longdouble`` has no padding)."""
    info = np.finfo(request.param)
    if info.nmant != 63 or info.dtype.itemsize <= 10:
        pytest.skip("this platform's longdouble has no padding bytes")
    a = np.linspace(-1.5, 2.0, 16).reshape(4, 4).astype(request.param)
    if np.iscomplexobj(a):
        a = a + 1j * a[::-1]
    b = a.copy()
    b.view(np.uint8).reshape(-1, info.dtype.itemsize)[:, 10:] ^= 0xA5
    assert np.array_equal(a, b) and a.tobytes() != b.tobytes()
    return a, b
