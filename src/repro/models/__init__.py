"""Twice-differentiable classifiers implemented from scratch on numpy.

Influence functions (paper §4.1) need exact access to per-sample gradients
and Hessians of the training loss at the fitted optimum.  PyTorch and
scikit-learn are not available in this environment, so the three model
families the paper evaluates — logistic regression, a linear SVM with a
(squared-)hinge loss, and a one-hidden-layer feed-forward network — are
implemented here with analytic derivatives, which tests validate against
finite differences.
"""

from repro.models.base import TwiceDifferentiableClassifier
from repro.models.logistic_regression import LogisticRegression
from repro.models.neural_network import NeuralNetwork
from repro.models.optim import minimize_loss
from repro.models.svm import LinearSVM

__all__ = [
    "LinearSVM",
    "LogisticRegression",
    "NeuralNetwork",
    "TwiceDifferentiableClassifier",
    "minimize_loss",
]
