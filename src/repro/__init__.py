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
"""

from repro.core import (
    ConvolutionDistiller,
    DecomposedFourier,
    ExplanationPipeline,
    MaskSpec,
    MultiInputScheduler,
    OutputEmbedding,
    TpuBackend,
    block_contributions,
    column_contributions,
    feature_contributions,
    frequency_solve,
    make_tpu_chip,
    score_plan,
    top_k_features,
)
from repro.hw import CpuDevice, GpuDevice, TpuChip, TpuCore, speedup

__version__ = "1.0.0"

__all__ = [
    "ConvolutionDistiller",
    "DecomposedFourier",
    "ExplanationPipeline",
    "MaskSpec",
    "MultiInputScheduler",
    "score_plan",
    "OutputEmbedding",
    "TpuBackend",
    "block_contributions",
    "column_contributions",
    "feature_contributions",
    "frequency_solve",
    "make_tpu_chip",
    "top_k_features",
    "CpuDevice",
    "GpuDevice",
    "TpuChip",
    "TpuCore",
    "speedup",
    "__version__",
]
