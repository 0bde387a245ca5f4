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
  processing of many inputs and block-partitioned matmuls;
* :mod:`repro.core.backend`         -- the multi-core TPU chip exposed
  through the common device interface (the "proposed approach" rows of
  the paper's tables);
* :mod:`repro.core.pipeline`        -- the distill-then-interpret
  workload that Table II times end to end.
"""

from repro.core.backend import TpuBackend, make_tpu_chip, make_tpu_pod
from repro.core.decomposition import (
    DecomposedFourier,
    DecompositionReport,
    StageTiming,
    shard_slices,
)
from repro.core.distillation import ConvolutionDistiller, NotFittedError
from repro.core.fleet import (
    FleetExecutor,
    FleetRun,
    FleetSchedule,
    PLACEMENTS,
    PairResult,
    WavePlan,
    feed_bytes,
)
from repro.core.interpretation import (
    block_contributions,
    column_contributions,
    contribution_matrix,
    element_scores_from_base,
    feature_contributions,
    mask_contribution,
    normalize_scores,
    row_contributions,
    top_k_features,
)
from repro.core.masking import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_STACK_BUDGET_BYTES,
    MaskSpec,
    MaskStackBudgetError,
    check_stack_budget,
    effective_chunk_rows,
    reduce_batch,
    score_plan,
)
from repro.core.parallel import (
    Assignment,
    AssignmentTable,
    BatchResult,
    BlockTask,
    MultiInputScheduler,
    block_matmul_tasks,
    partition_cores,
    run_block_matmul,
)
from repro.core.quality import (
    deletion_auc,
    deletion_curve,
    dominance_margin,
    rank_agreement,
    top_k_recall,
)
from repro.core.pipeline import ExplanationPipeline, InterpretationRun
from repro.core.transform import (
    OutputEmbedding,
    frequency_solve,
    spectrum_condition,
)

__all__ = [
    "TpuBackend",
    "make_tpu_chip",
    "make_tpu_pod",
    "PLACEMENTS",
    "DecomposedFourier",
    "DecompositionReport",
    "StageTiming",
    "shard_slices",
    "ConvolutionDistiller",
    "NotFittedError",
    "block_contributions",
    "column_contributions",
    "contribution_matrix",
    "feature_contributions",
    "mask_contribution",
    "normalize_scores",
    "row_contributions",
    "top_k_features",
    "MaskStackBudgetError",
    "DEFAULT_STACK_BUDGET_BYTES",
    "check_stack_budget",
    "reduce_batch",
    "score_plan",
    "element_scores_from_base",
    "FleetExecutor",
    "FleetRun",
    "FleetSchedule",
    "PairResult",
    "WavePlan",
    "feed_bytes",
    "Assignment",
    "AssignmentTable",
    "BatchResult",
    "BlockTask",
    "MultiInputScheduler",
    "deletion_auc",
    "deletion_curve",
    "dominance_margin",
    "rank_agreement",
    "top_k_recall",
    "block_matmul_tasks",
    "partition_cores",
    "run_block_matmul",
    "ExplanationPipeline",
    "InterpretationRun",
    "OutputEmbedding",
    "frequency_solve",
    "spectrum_condition",
]
