"""The paper's contribution: TPU-accelerated explainable ML.

Layout mirrors Section III of the paper:

* :mod:`repro.core.transform`       -- task transformation (Eq. 2-4):
  model distillation as a regularized Fourier-domain solve;
* :mod:`repro.core.distillation`    -- the one-layer convolutional
  distilled model (fit / predict / residual);
* :mod:`repro.core.interpretation`  -- outcome interpretation (Eq. 5):
  contribution factors per feature, block, row or column;
* :mod:`repro.core.masking`         -- the batched occlusion engine:
  lazy :class:`MaskSpec` mask plans scored as one streamed batch;
* :mod:`repro.core.decomposition`   -- Algorithm 1: sharding the 2-D
  Fourier transform across TPU cores with one reassembly per stage;
* :mod:`repro.core.fleet`           -- fleet-scale wave fusion: many
  pairs' mask plans and residual planes streamed through one batched
  program per scheduler wave (one dispatch per wave);
* :mod:`repro.core.parallel`        -- Section III-D: concurrent
  processing of many inputs, each on its own group of cores;
* :mod:`repro.core.backend`         -- the multi-core TPU chip exposed
  through the common device interface (the "proposed approach" rows of
  the paper's tables);
* :mod:`repro.core.pipeline`        -- the distill-then-interpret
  workload that Table II times end to end.
"""

from repro import lazy_exports

EXPORTS = {
    "backend": ("TpuBackend", "make_tpu_chip", "make_tpu_pod"),
    "decomposition": (
        "DecomposedFourier",
        "DecompositionReport",
        "StageTiming",
        "shard_slices",
    ),
    "distillation": ("ConvolutionDistiller", "NotFittedError"),
    "fleet": (
        "CheckedPair",
        "FleetExecutor",
        "FleetRun",
        "FleetSchedule",
        "PLACEMENTS",
        "PairResult",
        "WavePlan",
        "feed_bytes",
    ),
    "interpretation": (
        "block_contributions",
        "column_contributions",
        "element_scores_from_base",
        "feature_contributions",
        "normalize_scores",
        "row_contributions",
        "top_k_features",
    ),
    "masking": (
        "DEFAULT_CHUNK_ROWS",
        "DEFAULT_STACK_BUDGET_BYTES",
        "MaskSpec",
        "MaskStackBudgetError",
        "check_stack_budget",
        "effective_chunk_rows",
        "reduce_batch",
        "score_plan",
    ),
    "parallel": (
        "Assignment",
        "AssignmentTable",
        "BatchResult",
        "MultiInputScheduler",
        "partition_cores",
    ),
    "pipeline": ("ExplanationPipeline", "InterpretationRun"),
    "transform": ("OutputEmbedding", "frequency_solve"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
