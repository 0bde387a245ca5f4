"""Dataset substrate: synthetic stand-ins for the paper's benchmarks.

* :mod:`repro.data.cifar` -- class-structured CIFAR-100-like images
  with planted motif blocks (the Figure 5 ground truth);
* :mod:`repro.data.mirai` -- MIRAI-style register/clock-cycle trace
  tables with a planted ATTACK_VECTOR assignment cycle (the Figure 6
  ground truth);
* :mod:`repro.data.loader` -- batching and preprocessing helpers.

See DESIGN.md section 2 for why these substitutions preserve the
behaviour the experiments measure.
"""

from repro import lazy_exports

EXPORTS = {
    "cifar": ("CifarLikeSpec", "SyntheticCifar100", "make_cat_image"),
    "loader": ("normalize_images", "one_hot", "to_grayscale", "train_test_indices"),
    "mirai": ("ATTACK_MODES", "MiraiTraceDataset", "MiraiTraceSpec"),
    "windows": ("TraceWindow", "locate_cycle", "pad_trace", "sliding_windows"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
