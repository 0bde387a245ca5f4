"""Neural-network substrate (pure numpy, forward + backward).

Supplies the two benchmark models the paper evaluates -- VGG19
(:func:`repro.nn.vgg.vgg19`) and ResNet50
(:func:`repro.nn.resnet.resnet50`) -- together with the layers,
losses, optimizers and training loop needed to really train their
CI-scale variants, and the FLOP census (:mod:`repro.nn.flops`) that
feeds the hardware cost models for the full-size architectures.
"""

from repro import lazy_exports

EXPORTS = {
    "flops": ("MatmulShape", "ModelCensus", "input_bytes_per_sample", "model_census"),
    "layers": (
        "BatchNorm2d",
        "Conv2d",
        "Dense",
        "Dropout",
        "Flatten",
        "GlobalAvgPool",
        "Layer",
        "MaxPool2d",
        "ReLU",
    ),
    "losses": ("accuracy", "cross_entropy", "mse", "softmax"),
    "model": ("ResidualBlock", "Sequential", "conv_bn_relu"),
    "optim": ("Adam", "Optimizer", "SGD"),
    "quantized": (
        "ActivationQuantizer",
        "quantize_model_weights",
        "quantized_accuracy",
        "weight_quantization_error",
    ),
    "resnet": ("RESNET50_BLOCKS", "build_resnet", "resnet50", "resnet_scaled"),
    "train": ("EpochMetrics", "Trainer", "TrainingHistory", "minibatches"),
    "vgg": ("VGG19_CONFIG", "build_vgg", "vgg19", "vgg19_scaled"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
