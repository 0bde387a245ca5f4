"""Dataset substrate: synthetic stand-ins for the paper's benchmarks.

* :mod:`repro.data.cifar` -- class-structured CIFAR-100-like images
  with planted motif blocks (the Figure 5 ground truth);
* :mod:`repro.data.mirai` -- MIRAI-style register/clock-cycle trace
  tables with a planted ATTACK_VECTOR assignment cycle (the Figure 6
  ground truth);
* :mod:`repro.data.loader` -- the channel-mean grayscale reduction
  that turns an image into the single plane the distillation solves on.
"""

from repro import lazy_exports

EXPORTS = {
    "cifar": ("CifarLikeSpec", "SyntheticCifar100", "make_cat_image"),
    "loader": ("to_grayscale",),
    "mirai": ("ATTACK_MODES", "MiraiTraceDataset", "MiraiTraceSpec"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
