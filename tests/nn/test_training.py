"""Losses, optimizers, and end-to-end learning on small problems."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    ReLU,
    SGD,
    Sequential,
    Trainer,
    accuracy,
    cross_entropy,
    minibatches,
    mse,
    softmax,
)


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.standard_normal((5, 7)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_stability_with_huge_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_cross_entropy_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 2, 3])
        _, grad = cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += eps
                plus, _ = cross_entropy(bumped, labels)
                bumped[i, j] -= 2 * eps
                minus, _ = cross_entropy(bumped, labels)
                numeric = (plus - minus) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_label_smoothing_raises_loss_floor(self):
        logits = np.array([[50.0, 0.0]])
        labels = np.array([0])
        plain, _ = cross_entropy(logits, labels)
        smoothed, _ = cross_entropy(logits, labels, label_smoothing=0.2)
        assert smoothed > plain

    def test_mse(self):
        loss, grad = mse(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        assert loss == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [1.0, 0.0])

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.ones((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy(np.ones((2, 3)), np.array([0, 5]))
        with pytest.raises(ValueError):
            cross_entropy(np.ones((2, 3)), np.array([0, 1]), label_smoothing=1.0)
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            accuracy(np.ones(3), np.ones(3))


class TestOptimizers:
    def quadratic_setup(self):
        # Minimize ||p - target||^2.
        param = np.array([5.0, -3.0])
        target = np.array([1.0, 2.0])
        return param, target

    def test_sgd_converges_on_quadratic(self):
        param, target = self.quadratic_setup()
        optimizer = SGD([param], lr=0.1, momentum=0.5)
        for _ in range(200):
            optimizer.step([2.0 * (param - target)])
        np.testing.assert_allclose(param, target, atol=1e-4)

    def test_adam_converges_on_quadratic(self):
        param, target = self.quadratic_setup()
        optimizer = Adam([param], lr=0.1)
        for _ in range(500):
            optimizer.step([2.0 * (param - target)])
        np.testing.assert_allclose(param, target, atol=1e-3)

    def test_momentum_accelerates(self):
        param_plain, target = self.quadratic_setup()
        param_momentum = param_plain.copy()
        plain = SGD([param_plain], lr=0.01, momentum=0.0)
        momentum = SGD([param_momentum], lr=0.01, momentum=0.9)
        for _ in range(50):
            plain.step([2.0 * (param_plain - target)])
            momentum.step([2.0 * (param_momentum - target)])
        assert np.linalg.norm(param_momentum - target) < np.linalg.norm(
            param_plain - target
        )

    def test_weight_decay_shrinks_parameters(self):
        param = np.array([10.0])
        optimizer = SGD([param], lr=0.1, momentum=0.0, weight_decay=0.5)
        optimizer.step([np.zeros(1)])
        assert param[0] < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([np.ones(2)], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([np.ones(2)], lr=0.1, beta1=1.0)
        optimizer = SGD([np.ones(2)], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.step([])


class TestMinibatches:
    def test_covers_dataset(self):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        seen = []
        for bx, _ in minibatches(x, y, batch_size=3):
            seen.extend(bx.reshape(-1).tolist())
        assert sorted(seen) == list(range(10))

    def test_shuffling_changes_order(self):
        x = np.arange(32).reshape(32, 1)
        y = np.arange(32)
        first_batch, _ = next(minibatches(x, y, 32, rng=np.random.default_rng(0)))
        assert not np.array_equal(first_batch.reshape(-1), np.arange(32))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(minibatches(np.ones((3, 1)), np.ones(4), 2))
        with pytest.raises(ValueError):
            list(minibatches(np.ones((3, 1)), np.ones(3), 0))


class TestTrainer:
    def make_blobs(self, count=120, seed=0):
        """Two linearly separable Gaussian blobs."""
        rng = np.random.default_rng(seed)
        half = count // 2
        x0 = rng.standard_normal((half, 2)) + np.array([2.0, 2.0])
        x1 = rng.standard_normal((half, 2)) + np.array([-2.0, -2.0])
        x = np.vstack([x0, x1])
        y = np.array([0] * half + [1] * half)
        return x, y

    def test_learns_separable_problem(self):
        x, y = self.make_blobs()
        model = Sequential(
            [Dense(2, 16, rng=np.random.default_rng(1)), ReLU(), Dense(16, 2)]
        )
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05), batch_size=16)
        history = trainer.fit(x, y, epochs=20, test_inputs=x, test_labels=y)
        assert history.final_test_accuracy > 0.95
        assert history.epochs[0].train_loss > history.epochs[-1].train_loss

    def test_history_bookkeeping(self):
        x, y = self.make_blobs(count=40)
        model = Sequential([Dense(2, 2)])
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01), batch_size=8)
        history = trainer.fit(x, y, epochs=3)
        assert len(history.epochs) == 3
        assert history.final_test_accuracy is None
        assert history.best_test_accuracy is None

    def test_evaluate_without_training(self):
        x, y = self.make_blobs(count=20)
        model = Sequential([Dense(2, 2)])
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01))
        score = trainer.evaluate(x, y)
        assert 0.0 <= score <= 1.0

    def test_invalid_epochs(self):
        model = Sequential([Dense(2, 2)])
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01))
        with pytest.raises(ValueError):
            trainer.fit(np.ones((4, 2)), np.zeros(4, dtype=int), epochs=0)

    @pytest.mark.parametrize("optimizer_class", (SGD, Adam))
    def test_fit_keeps_the_learning_rate_across_epochs(self, optimizer_class):
        x, y = self.make_blobs(count=32)
        model = Sequential([Dense(2, 2)])
        optimizer = optimizer_class(model.parameters(), lr=0.05)
        rates = []
        step = optimizer.step

        def recording_step(gradients):
            rates.append(optimizer.lr)
            step(gradients)

        optimizer.step = recording_step
        Trainer(model, optimizer, batch_size=8).fit(x, y, epochs=3)
        assert rates == [0.05] * 12  # 4 minibatches in each of 3 epochs
        assert optimizer.lr == 0.05
