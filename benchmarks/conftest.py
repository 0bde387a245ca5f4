"""Shared configuration for the benchmark suite.

pytest-benchmark measures harness wall time (the cost of running the
simulator); the *scientific* outputs are the simulated seconds each
bench prints and asserts on.  Keep rounds low -- the workloads are
deterministic, so statistical repetition buys nothing.

Registers the ``slow`` mark (Table I's real training of its two
CI-scale CNNs), so ``--strict-markers`` runs accept it.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: trains real models (tens of seconds); select with -m slow"
    )
