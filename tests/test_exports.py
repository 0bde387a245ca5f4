"""Package exports: every public name resolves on first use, and only then.

Each lazy package declares its exports once, as ``EXPORTS`` (defining
submodule -> names), and :func:`repro.lazy_exports` builds its
``__getattr__``, ``__dir__`` and ``__all__`` from that table.  The
checks that need a fresh interpreter -- which modules an import loads,
and attribute access before anything else imported a submodule -- run
in a subprocess.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

LAZY = (
    "repro",
    "repro.core",
    "repro.hw",
    "repro.bench",
    "repro.serve",
    "repro.nn",
    "repro.data",
    "repro.baselines",
)
EAGER = ("repro.fft", "repro.obs")

#: Modules no benchmark workload runs: the benchmark's imports, builds
#: and reps must not load them (a name is a module or a package prefix).
#: The TPU is priced from its configuration, so the cycle-level core
#: (``repro.hw.tpu_core``) and what only it uses stay unloaded too.
UNUSED_BY_BENCHMARK = (
    "repro.nn",
    "repro.data",
    "repro.bench.harness",
    "repro.bench.report",
    "repro.core.decomposition",
    "repro.core.quality",
    "repro.core.parallel",
    "repro.core.pipeline",
    "repro.hw.compiler",
    "repro.hw.cpu",
    "repro.hw.gpu",
    "repro.hw.isa",
    "repro.hw.memory",
    "repro.hw.perf",
    "repro.hw.systolic",
    "repro.hw.tpu_core",
    "repro.hw.trace",
    "repro.serve.capacity",
)


def fresh_python(*arguments, code=None):
    """Run a fresh interpreter on ``src``; returns the completed process."""
    command = [sys.executable, *arguments] + (["-c", code] if code is not None else [])
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        command, capture_output=True, text=True, env=environment, timeout=300
    )


@pytest.mark.parametrize("name", LAZY)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    names = [export for exports in package.EXPORTS.values() for export in exports]
    assert sorted(set(package.__all__) - {"__version__"}) == sorted(names)
    assert len(names) == len(set(names))
    listed = dir(package)
    for module, exports in package.EXPORTS.items():
        owner = importlib.import_module(f"{name}.{module}")
        for export in exports:
            value = getattr(package, export)
            assert value is getattr(owner, export), f"{name}.{export}"
            assert vars(package)[export] is value  # stored: later reads skip __getattr__
            assert export in listed


@pytest.mark.parametrize("name", EAGER)
def test_eager_package_exports_resolve(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listed


@pytest.mark.parametrize("name", LAZY + EAGER)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_star_import_takes_the_table():
    namespace = {}
    exec("from repro.core import *", namespace)
    assert set(repro.core.__all__) <= set(namespace)


def test_submodule_resolves_after_a_bare_package_import():
    completed = fresh_python(code=(
        "import repro\n"
        "print(repro.core.fleet.FleetExecutor.__name__, repro.serve.loop.__name__)"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["FleetExecutor", "repro.serve.loop"]


def test_hw_quantize_is_the_function():
    import repro.hw.quantize  # noqa: F401  the submodule of the same name
    from repro.hw import quantize
    from repro.hw.quantize import PrecisionSpec

    assert callable(quantize) and not isinstance(quantize, types.ModuleType)
    assert quantize is sys.modules["repro.hw.quantize"].quantize
    assert isinstance(repro.hw.INT8, PrecisionSpec)
    completed = fresh_python(code=(
        "import types\n"
        "import repro.hw.quantize\n"
        "from repro.hw import quantize\n"
        "print(isinstance(quantize, types.ModuleType))"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_eager_names_that_share_a_submodule_name():
    from repro.obs.tracer import Tracer

    assert callable(repro.fft.fft)
    assert repro.fft.fft is sys.modules["repro.fft.fft"].fft
    assert isinstance(repro.obs.tracer, Tracer)


def benchmark_imports():
    """The ``repro`` import statements of the benchmark's own modules."""
    statements = []
    for script in ("run.py", "layers.py", "workloads.py"):
        tree = ast.parse((PERF / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                statements.append(ast.unparse(node))
            elif isinstance(node, ast.Import) and any(
                alias.name.startswith("repro") for alias in node.names
            ):
                statements.append(ast.unparse(node))
    return statements


def unused_by_benchmark(loaded):
    """The modules of ``loaded`` that :data:`UNUSED_BY_BENCHMARK` names."""
    return [
        module for module in loaded
        if any(module == name or module.startswith(name + ".") for name in UNUSED_BY_BENCHMARK)
    ]


def loaded_after(*lines):
    """The ``repro`` modules a fresh interpreter has loaded after ``lines``."""
    completed = fresh_python(code="\n".join([
        *lines,
        "import json, sys",
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))",
    ]))
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.skipif(not PERF.is_dir(), reason="needs the benchmark's sources")
def test_benchmark_imports_load_no_unused_module():
    statements = benchmark_imports()
    assert any("repro.serve" in statement for statement in statements)
    loaded = loaded_after(*statements)
    assert "repro.core.fleet" in loaded and "repro.serve.loop" in loaded
    assert unused_by_benchmark(loaded) == []


@pytest.mark.skipif(not PERF.is_dir(), reason="needs the benchmark's sources")
def test_benchmark_builds_and_reps_load_no_unused_module():
    """Building every full workload and running a smoke rep of each, after
    the benchmark's imports, loads no unused module: so no rep builds a
    ``TpuCore``."""
    loaded = loaded_after(
        *benchmark_imports(),
        "import sys",
        f"sys.path.insert(0, {str(PERF)!r})",
        "import workloads",
        "for workload in workloads.WORKLOADS:",
        "    workload.build()",
        "for workload in workloads.SMOKE_WORKLOADS:",
        "    inputs = workload.inputs(0)",
        "    built = workload.build()",
        "    outcome = workload.outcome(built, inputs, workload.execute(built, inputs), 0)",
        "    assert outcome.failed == 0 and outcome.fingerprint, outcome.problems",
    )
    assert "repro.core.backend" in loaded and "repro.hw.pod" in loaded
    assert "repro.hw.tpu_core" not in loaded
    assert unused_by_benchmark(loaded) == []


def test_harness_runs_as_main_without_runpy_warning():
    """``repro.bench`` no longer imports the harness, so ``-m`` runs it once."""
    completed = fresh_python("-W", "error::RuntimeWarning", "-m", "repro.bench.harness", "table2")
    assert completed.returncode == 0, completed.stderr
    assert "TABLE II" in completed.stdout


def test_csv_report_does_not_import_the_harness():
    """``--csv`` imports the report from the running harness: no second copy."""
    completed = fresh_python(code=(
        "import sys\n"
        "from repro.bench import table2_csv\n"
        "print('repro.bench.harness' in sys.modules)"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
