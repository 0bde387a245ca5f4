"""Synthetic datasets: structure, determinism, planted ground truth."""

import numpy as np
import pytest

from repro.data import (
    ATTACK_MODES,
    CifarLikeSpec,
    MiraiTraceDataset,
    MiraiTraceSpec,
    SyntheticCifar100,
    make_cat_image,
    to_grayscale,
)


class TestSyntheticCifar:
    def test_batch_shapes_and_range(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=10), seed=0)
        images, labels = dataset.batch(20, seed=1)
        assert images.shape == (20, 3, 32, 32)
        assert labels.shape == (20,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert images.dtype == np.float32

    def test_labels_cycle_through_classes(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=4), seed=0)
        _, labels = dataset.batch(8)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3, 0, 1, 2, 3])

    def test_determinism(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=5), seed=3)
        a, _ = dataset.batch(6, seed=9)
        b, _ = dataset.batch(6, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=5), seed=3)
        a, _ = dataset.batch(6, seed=1)
        b, _ = dataset.batch(6, seed=2)
        assert not np.array_equal(a, b)

    def test_motif_block_is_in_grid(self):
        spec = CifarLikeSpec(num_classes=20, image_size=32, motif_size=8)
        dataset = SyntheticCifar100(spec, seed=0)
        for label in range(20):
            row, col = dataset.motif_block(label)
            assert 0 <= row < 4 and 0 <= col < 4

    def test_motif_region_has_high_contrast(self):
        """The planted motif must carry class-distinctive signal."""
        spec = CifarLikeSpec(num_classes=8, noise_level=0.05)
        dataset = SyntheticCifar100(spec, seed=1)
        rng = np.random.default_rng(2)
        label = 3
        row, col = dataset.motif_block(label)
        ms = spec.motif_size
        image_a = dataset.sample(label, rng)
        image_b = dataset.sample(label, rng)
        motif_a = image_a[:, row * ms : (row + 1) * ms, col * ms : (col + 1) * ms]
        motif_b = image_b[:, row * ms : (row + 1) * ms, col * ms : (col + 1) * ms]
        # The motif is deterministic per class (low variance across samples).
        assert np.abs(motif_a - motif_b).mean() < 0.05

    def test_classes_are_distinguishable(self):
        """Mean images of different classes differ substantially."""
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=3, noise_level=0.1), seed=0)
        rng = np.random.default_rng(5)
        means = [
            np.mean([dataset.sample(c, rng) for _ in range(8)], axis=0)
            for c in range(3)
        ]
        assert np.abs(means[0] - means[1]).mean() > 0.01
        assert np.abs(means[1] - means[2]).mean() > 0.01

    def test_train_test_split(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=4), seed=0)
        train_x, train_y, test_x, test_y = dataset.train_test_split(8, 4)
        assert train_x.shape[0] == 8 and test_x.shape[0] == 4
        assert not np.array_equal(train_x[:4], test_x)

    def test_validation(self):
        with pytest.raises(ValueError):
            CifarLikeSpec(num_classes=0)
        with pytest.raises(ValueError):
            CifarLikeSpec(motif_size=64, image_size=32)
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=2))
        with pytest.raises(ValueError):
            dataset.sample(5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dataset.batch(0)
        with pytest.raises(ValueError):
            dataset.batch(3, labels=np.array([0, 1]))

    def test_spec_rejects_an_empty_image_or_negative_noise(self):
        with pytest.raises(ValueError, match="invalid image geometry"):
            CifarLikeSpec(image_size=0)
        with pytest.raises(ValueError, match="invalid image geometry"):
            CifarLikeSpec(channels=0)
        with pytest.raises(ValueError, match="noise level cannot be negative"):
            CifarLikeSpec(noise_level=-0.1)

    def test_num_classes_follows_the_spec(self):
        dataset = SyntheticCifar100(CifarLikeSpec(num_classes=5), seed=1)
        assert dataset.num_classes == 5
        _, labels = dataset.batch(10)
        assert set(labels.tolist()) == set(range(5))


class TestMakeCatImage:
    def test_shape_and_blocks(self):
        image, face, ear = make_cat_image(size=32, block=8)
        assert image.shape == (32, 32)
        assert face == (2, 2)
        assert ear == (1, 2)

    def test_face_block_has_highest_energy(self):
        image, face, ear = make_cat_image(size=32, block=8)
        grid = image.reshape(4, 8, 4, 8).swapaxes(1, 2)
        block_energy = (grid**2).sum(axis=(2, 3))
        top = np.unravel_index(np.argmax(block_energy), block_energy.shape)
        assert tuple(top) == face

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            make_cat_image(size=32, block=5)


class TestMiraiTraces:
    def test_batch_shapes_and_labels(self):
        dataset = MiraiTraceDataset(MiraiTraceSpec(registers=8, cycles=8), seed=0)
        traces, labels, infos = dataset.batch(10)
        assert traces.shape == (10, 8, 8)
        np.testing.assert_array_equal(labels, [0, 1] * 5)
        assert len(infos) == 10

    def test_malicious_traces_carry_attack_metadata(self):
        dataset = MiraiTraceDataset(seed=1)
        _, labels, infos = dataset.batch(6)
        for label, info in zip(labels, infos):
            if label == 1:
                assert info["attack_cycle"] == dataset.attack_cycle
                assert info["attack_mode"] in ATTACK_MODES
            else:
                assert info["attack_cycle"] is None

    def test_attack_cycle_is_interior(self):
        for seed in range(5):
            dataset = MiraiTraceDataset(MiraiTraceSpec(cycles=16), seed=seed)
            assert 1 <= dataset.attack_cycle < 15

    def test_attack_column_is_distinctive(self):
        """The planted column must dominate benign activity levels."""
        spec = MiraiTraceSpec(registers=8, cycles=8, noise_level=0.02)
        dataset = MiraiTraceDataset(spec, seed=2)
        rng = np.random.default_rng(3)
        trace, info = dataset.sample(True, rng)
        register = info["attack_register"]
        cycle = info["attack_cycle"]
        others = np.delete(trace[register], cycle)
        assert trace[register, cycle] > others.max()

    def test_determinism(self):
        dataset = MiraiTraceDataset(seed=4)
        a, _, _ = dataset.batch(4, seed=7)
        b, _, _ = dataset.batch(4, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_as_images_adds_channel(self):
        dataset = MiraiTraceDataset()
        traces, _, _ = dataset.batch(4)
        images = dataset.as_images(traces)
        assert images.shape == (4, 1, 8, 8)

    def test_format_table_rendering(self):
        dataset = MiraiTraceDataset(seed=5)
        trace, _ = dataset.sample(True, np.random.default_rng(0))
        weights = np.linspace(0, 1, 8)
        text = dataset.format_table(trace, weights=weights)
        assert "R0" in text and "C0" in text and "wgt" in text
        assert "0x" in text

    def test_format_table_validation(self):
        dataset = MiraiTraceDataset()
        with pytest.raises(ValueError):
            dataset.format_table(np.ones(4))
        trace, _ = dataset.sample(False, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dataset.format_table(trace, weights=np.ones(2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MiraiTraceSpec(registers=0)
        with pytest.raises(ValueError):
            MiraiTraceSpec(attack_register=10, registers=4)

    def test_spec_rejects_negative_signal_strengths(self):
        with pytest.raises(ValueError, match="signal strengths cannot be negative"):
            MiraiTraceSpec(noise_level=-0.1)
        with pytest.raises(ValueError, match="signal strengths cannot be negative"):
            MiraiTraceSpec(reaction_strength=-0.1)
        with pytest.raises(ValueError, match="reacting register count cannot be negative"):
            MiraiTraceSpec(reacting_registers=-1)

    def test_batch_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be positive"):
            MiraiTraceDataset().batch(0)

    def test_as_images_needs_a_batch_of_traces(self):
        dataset = MiraiTraceDataset()
        trace, _ = dataset.sample(True, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected \(batch, registers, cycles\)"):
            dataset.as_images(trace)
        assert dataset.as_images(trace[np.newaxis]).dtype == np.float32


class TestLoaderHelpers:
    def test_to_grayscale(self):
        images = np.ones((2, 3, 4, 4))
        gray = to_grayscale(images)
        assert gray.shape == (2, 4, 4)
        np.testing.assert_allclose(gray, 1.0)

    def test_to_grayscale_validation(self):
        with pytest.raises(ValueError):
            to_grayscale(np.ones((3, 4, 4)))
