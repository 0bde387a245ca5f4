"""Minibatch training loop with metric tracking.

Used to produce the *accuracy* column of the Table I reproduction:
scaled VGG19/ResNet50 variants genuinely train on the synthetic
datasets, while the time columns come from the device cost models fed by
:mod:`repro.nn.flops` (see ``repro.bench.workloads``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import accuracy, cross_entropy
from repro.nn.model import Sequential
from repro.nn.optim import Optimizer


@dataclass
class EpochMetrics:
    """Loss/accuracy record for one epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float | None = None


@dataclass
class TrainingHistory:
    """Full run record returned by :meth:`Trainer.fit`."""

    epochs: list[EpochMetrics] = field(default_factory=list)

    @property
    def final_train_accuracy(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].train_accuracy

    @property
    def final_test_accuracy(self) -> float | None:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].test_accuracy

    @property
    def best_test_accuracy(self) -> float | None:
        scores = [e.test_accuracy for e in self.epochs if e.test_accuracy is not None]
        return max(scores) if scores else None


def minibatches(
    inputs: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
):
    """Yield shuffled (inputs, labels) minibatches covering the dataset."""
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{inputs.shape[0]} inputs vs {labels.shape[0]} labels"
        )
    count = inputs.shape[0]
    order = np.arange(count)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, count, batch_size):
        batch = order[start : start + batch_size]
        yield inputs[batch], labels[batch]


class Trainer:
    """Cross-entropy classification trainer."""

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer,
        batch_size: int = 32,
        label_smoothing: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.label_smoothing = label_smoothing
        self.rng = np.random.default_rng(seed)

    def train_epoch(self, inputs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """One pass over the training set; returns (mean loss, accuracy)."""
        losses = []
        correct = 0
        seen = 0
        for x, y in minibatches(inputs, labels, self.batch_size, rng=self.rng):
            logits = self.model.forward(x, training=True)
            loss, grad = cross_entropy(logits, y, self.label_smoothing)
            self.model.backward(grad)
            self.optimizer.step(self.model.gradients())
            losses.append(loss)
            correct += int(np.sum(np.argmax(logits, axis=1) == y))
            seen += x.shape[0]
        return float(np.mean(losses)), correct / seen

    def evaluate(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Inference-mode top-1 accuracy."""
        predictions = []
        for start in range(0, inputs.shape[0], self.batch_size):
            batch = inputs[start : start + self.batch_size]
            predictions.append(self.model.forward(batch, training=False))
        return accuracy(np.vstack(predictions), labels)

    def fit(
        self,
        train_inputs: np.ndarray,
        train_labels: np.ndarray,
        epochs: int,
        test_inputs: np.ndarray | None = None,
        test_labels: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes, evaluating after each when a test
        set is provided."""
        if epochs <= 0:
            raise ValueError(f"epoch count must be positive, got {epochs}")
        history = TrainingHistory()
        for epoch in range(epochs):
            loss, train_acc = self.train_epoch(train_inputs, train_labels)
            test_acc = None
            if test_inputs is not None and test_labels is not None:
                test_acc = self.evaluate(test_inputs, test_labels)
            history.epochs.append(
                EpochMetrics(
                    epoch=epoch,
                    train_loss=loss,
                    train_accuracy=train_acc,
                    test_accuracy=test_acc,
                )
            )
        return history
