"""Baseline explainers used for correctness cross-checks and cost contrast.

* :mod:`repro.baselines.occlusion` -- black-box block/column occlusion;
* :mod:`repro.baselines.gradient`  -- white-box gradient x input;
* :mod:`repro.baselines.surrogate` -- the iterative optimization-based
  surrogate the paper's closed-form solve is measured against.
"""

from repro import lazy_exports

EXPORTS = {
    "gradient": ("gradient_input_saliency", "saliency_block_grid"),
    "occlusion": (
        "occlusion_column_saliency",
        "occlusion_plan_saliency",
        "occlusion_saliency",
    ),
    "surrogate": ("LinearSurrogateExplainer", "SurrogateConfig", "SurrogateResult"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
