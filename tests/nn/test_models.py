"""Model containers, VGG/ResNet builders, and the FLOP census."""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    Flatten,
    Layer,
    ReLU,
    ResidualBlock,
    Sequential,
    build_resnet,
    build_vgg,
    conv_bn_relu,
    input_bytes_per_sample,
    model_census,
    resnet50,
    resnet_scaled,
    vgg19,
    vgg19_scaled,
)


class TestSequential:
    def test_forward_backward_chain(self):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        x = rng.standard_normal((3, 4))
        out = model.forward(x, training=True)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_parameter_count(self):
        model = Sequential([Dense(4, 8), Dense(8, 2)])
        assert model.parameter_count() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(1)
        model = Sequential([Dense(4, 4, rng=rng)])
        saved = model.state_dict()
        model.parameters()[0][...] = 0.0
        model.load_state_dict(saved)
        np.testing.assert_array_equal(model.parameters()[0], saved[0])

    def test_load_state_dict_validation(self):
        model = Sequential([Dense(4, 4)])
        with pytest.raises(ValueError):
            model.load_state_dict([])
        with pytest.raises(ValueError):
            model.load_state_dict([np.zeros((2, 2)), np.zeros(4)])

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])


class TestResidualBlock:
    def test_identity_skip_forward(self):
        rng = np.random.default_rng(2)
        main = Sequential(conv_bn_relu(4, 4, rng=rng))
        block = ResidualBlock(main)
        x = rng.standard_normal((2, 4, 8, 8))
        out = block.forward(x, training=True)
        assert out.shape == x.shape
        assert np.all(out >= 0)  # trailing ReLU

    def test_projection_adapts_shape(self):
        rng = np.random.default_rng(3)
        main = Sequential(
            conv_bn_relu(4, 8, kernel_size=3, stride=2, padding=1, rng=rng, relu=False)
        )
        projection = Sequential(
            conv_bn_relu(4, 8, kernel_size=1, stride=2, padding=0, rng=rng, relu=False)
        )
        block = ResidualBlock(main, projection)
        out = block.forward(rng.standard_normal((1, 4, 8, 8)), training=True)
        assert out.shape == (1, 8, 4, 4)

    def test_backward_shape(self):
        rng = np.random.default_rng(4)
        block = ResidualBlock(Sequential(conv_bn_relu(2, 2, rng=rng)))
        x = rng.standard_normal((1, 2, 4, 4))
        out = block.forward(x, training=True)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_gradient_flows_through_both_branches(self):
        """The skip path must contribute gradient -- perturbing the input
        along the skip direction changes the output even if main is dead."""
        rng = np.random.default_rng(5)
        main = Sequential(conv_bn_relu(2, 2, rng=rng, relu=False))
        # Zero the main branch entirely.
        for p in main.parameters():
            p[...] = 0.0
        block = ResidualBlock(main)
        x = np.abs(rng.standard_normal((1, 2, 4, 4))) + 0.1
        out = block.forward(x, training=True)
        grad = block.backward(np.ones_like(out))
        assert np.abs(grad).sum() > 0

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(6)
        main = Sequential(conv_bn_relu(2, 4, rng=rng))  # changes channels
        block = ResidualBlock(main)  # no projection: mismatch
        with pytest.raises(ValueError):
            block.forward(rng.standard_normal((1, 2, 4, 4)))

    def test_projection_gradients_follow_the_main_branch(self):
        rng = np.random.default_rng(9)
        main = Sequential(conv_bn_relu(2, 4, rng=rng, relu=False))
        projection = Sequential(
            conv_bn_relu(2, 4, kernel_size=1, padding=0, rng=rng, relu=False)
        )
        block = ResidualBlock(main, projection)
        out = block.forward(rng.standard_normal((1, 2, 4, 4)), training=True)
        block.backward(np.ones_like(out))
        grads = block.gradients()
        expected = main.gradients() + projection.gradients()
        assert len(grads) == len(expected) == len(block.parameters())
        assert all(g is e for g, e in zip(grads, expected))
        assert [g.shape for g in grads] == [p.shape for p in block.parameters()]


class TestBuilders:
    def test_scaled_vgg_forward_shape(self):
        model = vgg19_scaled(num_classes=10)
        out = model.forward(np.random.default_rng(7).standard_normal((2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_scaled_resnet_forward_shape(self):
        model = resnet_scaled(num_classes=2, in_channels=1)
        out = model.forward(np.random.default_rng(8).standard_normal((2, 1, 32, 32)))
        assert out.shape == (2, 2)

    def test_full_vgg19_has_sixteen_conv_layers(self):
        from repro.nn import Conv2d

        model = vgg19()
        conv_count = sum(1 for layer in model.layers if isinstance(layer, Conv2d))
        assert conv_count == 16

    def test_full_vgg19_parameter_count_order(self):
        # VGG19 with a compact CIFAR head is ~20-22M conv parameters.
        assert 15e6 < vgg19().parameter_count() < 30e6

    def test_full_resnet50_block_structure(self):
        model = resnet50()
        blocks = [layer for layer in model.layers if isinstance(layer, ResidualBlock)]
        assert len(blocks) == 16  # 3 + 4 + 6 + 3

    def test_full_resnet50_parameter_count_order(self):
        assert 15e6 < resnet50().parameter_count() < 35e6

    def test_width_mult_scales_parameters(self):
        full = vgg19().parameter_count()
        half = vgg19(width_mult=0.5).parameter_count()
        assert half < full / 3  # parameters scale ~quadratically in width

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_vgg([64, "M"], input_size=15)  # not divisible by 2
        with pytest.raises(ValueError):
            build_vgg([64], width_mult=0.0)
        with pytest.raises(ValueError):
            build_resnet(blocks=())
        with pytest.raises(ValueError):
            build_resnet(blocks=(1, -1))

    def test_resnet_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width_mult must be positive"):
            build_resnet(blocks=(1,), width_mult=0.0)

    def test_vgg_input_size_and_class_count_must_be_positive(self):
        with pytest.raises(ValueError, match="input size and class count"):
            build_vgg([8, "M"], input_size=0)
        with pytest.raises(ValueError, match="input size and class count"):
            build_vgg([8, "M"], input_size=8, num_classes=0)


class TestCensus:
    def test_vgg_census_macs_match_known_scale(self):
        """Full VGG19 at 32x32 is ~400M MACs per forward pass."""
        census = model_census(vgg19(), (3, 32, 32), name="vgg19")
        assert 300e6 < census.forward_macs < 500e6

    def test_resnet50_census_scale(self):
        census = model_census(resnet50(), (3, 32, 32), name="resnet50")
        assert 50e6 < census.forward_macs < 500e6

    def test_census_counts_every_conv(self):
        census = model_census(vgg19(), (3, 32, 32))
        conv_shapes = [s for s in census.matmuls if s.label.startswith("conv")]
        assert len(conv_shapes) == 16

    def test_training_macs_multiplier(self):
        census = model_census(vgg19_scaled(), (3, 32, 32))
        assert census.training_macs(2.0) == 3 * census.forward_macs

    def test_first_conv_shape_explicit(self):
        census = model_census(vgg19(), (3, 32, 32))
        first = census.matmuls[0]
        assert (first.m, first.k, first.n) == (32 * 32, 3 * 9, 64)

    def test_census_parameter_count_matches_model(self):
        model = vgg19_scaled()
        census = model_census(model, (3, 32, 32))
        assert census.parameter_count == model.parameter_count()

    def test_residual_census_includes_projection(self):
        model = resnet_scaled(in_channels=1)
        census = model_census(model, (1, 32, 32))
        assert census.forward_macs > 0
        assert census.elementwise_elements > 0

    def test_non_square_input_rejected(self):
        with pytest.raises(ValueError):
            model_census(vgg19_scaled(), (3, 32, 16))

    def test_forward_flops_are_two_per_mac_plus_the_elementwise_passes(self):
        census = model_census(Sequential([Flatten(), Dense(4, 3), ReLU()]), (4, 1, 1))
        assert census.forward_macs == 12
        assert census.elementwise_elements == 3
        assert census.forward_flops == 2 * 12 + 3

    def test_layer_op_count_adds_one_elementwise_kernel(self):
        dense_only = model_census(Sequential([Dense(4, 3)]), (4, 1, 1))
        assert dense_only.elementwise_elements == 0
        assert dense_only.layer_op_count == 2
        vgg = model_census(vgg19_scaled(), (3, 32, 32))
        assert vgg.layer_op_count == len(vgg.matmuls) + 1

    def test_unknown_layer_type_rejected(self):
        class Identity(Layer):
            def forward(self, x, training=False):
                return x

        with pytest.raises(TypeError, match="does not know layer type Identity"):
            model_census(Sequential([Identity()]), (1, 4, 4))

    def test_input_bytes_per_sample(self):
        assert input_bytes_per_sample((3, 32, 32)) == 3 * 32 * 32 * 4
        assert input_bytes_per_sample((1, 8, 8), bytes_per_value=2) == 128
