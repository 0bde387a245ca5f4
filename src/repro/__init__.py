"""repro: TPU-accelerated explainable machine learning, reproduced.

A from-scratch reproduction of Pan & Mishra, "Hardware Acceleration of
Explainable Machine Learning using Tensor Processing Units" (DATE 2022,
arXiv:2103.11927).

Quick start::

    import numpy as np
    from repro import ConvolutionDistiller, TpuBackend, make_tpu_chip

    backend = TpuBackend(make_tpu_chip(num_cores=128, precision="bf16"))
    distiller = ConvolutionDistiller(device=backend, eps=1e-6)
    distiller.fit(x, y)                    # K = F^-1(F(Y)/F(X))
    scores = feature_contributions(x, distiller.kernel_, y)

Package map (see DESIGN.md for the full inventory):

==================  ====================================================
``repro.fft``       Fourier substrate (numpy.fft host transforms,
                    matmul-form 2-D transforms, convolution theorem)
``repro.hw``        simulated hardware: cycle-level systolic TPU,
                    CPU/GPU comparator models, memories, interconnect
``repro.core``      the paper's contribution: Fourier-domain model
                    distillation, contribution factors, Algorithm 1
                    data decomposition, multi-input parallelism
``repro.nn``        numpy neural networks: VGG19/ResNet50 builders,
                    training loop, FLOP census
``repro.data``      synthetic CIFAR-100-like images and MIRAI-style
                    malware trace tables with planted ground truth
``repro.baselines`` occlusion, gradient x input, iterative surrogate
``repro.bench``     harness regenerating every table and figure
==================  ====================================================

Public names resolve on first use: a package imports the submodule
that defines a name when the name is first asked for (PEP 562), so a
run loads only the modules it uses.  ``repro.fft`` and ``repro.obs``,
which every run loads in full, import eagerly.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__getattr__, __dir__, __all__)`` of a package whose names load lazily.

    ``exports`` maps each defining submodule, relative to ``package``,
    to the public names it holds.  A name is imported from its module
    the first time it is asked for and then stored on the package, so
    later reads are plain attribute lookups.  Any other name falls back
    to the submodule of that name (``repro.core.fleet`` after a bare
    ``import repro``), and failing that raises ``AttributeError``.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        owner = owners.get(name)
        if owner is None:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *owners})

    return __getattr__, __dir__, list(owners)


EXPORTS = {
    "core.backend": ("TpuBackend", "make_tpu_chip"),
    "core.decomposition": ("DecomposedFourier",),
    "core.distillation": ("ConvolutionDistiller",),
    "core.interpretation": (
        "block_contributions",
        "column_contributions",
        "feature_contributions",
        "top_k_features",
    ),
    "core.masking": ("MaskSpec", "score_plan"),
    "core.parallel": ("MultiInputScheduler",),
    "core.pipeline": ("ExplanationPipeline",),
    "core.transform": ("OutputEmbedding", "frequency_solve"),
    "hw.cpu": ("CpuDevice",),
    "hw.gpu": ("GpuDevice",),
    "hw.perf": ("speedup",),
    "hw.tpu": ("TpuChip",),
    "hw.tpu_core": ("TpuCore",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
__all__.append("__version__")
