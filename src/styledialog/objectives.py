"""Training objectives: L1 style loss over a linear output projection,
next-token cross-entropy, and their analytic gradients (verified against
central finite differences in the test suite).

Style loss is the mean absolute error over the style dimensions, so the
loss weight's scale is independent of the style width.

Token ids are 1-based: targets lie in [1, V] and index logit columns
target-1.  Positions t in (1, T] are scored; position 1 never is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dialog import STYLE_DIM, StyleVector


@dataclass(frozen=True)
class ProjectionOut:
    """Hidden -> style linear map (D x H weights, D bias)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != STYLE_DIM or b.shape != (STYLE_DIM,):
            raise ValueError(f"bad output projection shapes {w.shape}, {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("projection parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]


def project_out(h: np.ndarray, proj: ProjectionOut) -> StyleVector:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (proj.hidden_dim,):
        raise ValueError(f"hidden vector has shape {h.shape}, expected ({proj.hidden_dim},)")
    return StyleVector(values=tuple(proj.weights @ h + proj.bias), kind="prosodic")


def _check_style_pair(pred: StyleVector, target: StyleVector):
    if pred.kind != "prosodic" or target.kind != "prosodic":
        raise ValueError("style loss is defined over prosodic styles")


def style_loss(pred: StyleVector, target: StyleVector) -> float:
    _check_style_pair(pred, target)
    return float(np.mean(np.abs(pred.as_array() - target.as_array())))


def _scored_rows(logit_rows: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    logits = np.asarray(logit_rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("logits must be a T x V matrix")
    t_len, vocab = logits.shape
    if t_len < 2:
        raise ValueError(f"need at least 2 positions to score, got {t_len}")
    if targets.shape != (t_len,):
        raise ValueError("targets must have one id per position")
    if np.any(targets < 1) or np.any(targets > vocab):
        raise IndexError("target token id outside [1, V]")
    return logits, targets


def text_loss(logit_rows: np.ndarray, targets) -> float:
    """Mean cross-entropy over positions 2..T (1-based), max-stabilized."""
    logits, targets = _scored_rows(logit_rows, targets)
    scored = logits[1:]
    ids = targets[1:] - 1
    shifted = scored - scored.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    picked = shifted[np.arange(len(ids)), ids]
    return float(np.mean(log_z - picked))


def grad_style_loss(pred: StyleVector, target: StyleVector, h: np.ndarray,
                    proj: ProjectionOut):
    """d(style_loss)/dW and /db for pred = W h + b; sign(0) := 0."""
    _check_style_pair(pred, target)
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (proj.hidden_dim,):
        raise ValueError("hidden vector shape mismatch")
    sign = np.sign(pred.as_array() - target.as_array())
    grad_b = sign / STYLE_DIM
    grad_w = np.outer(grad_b, h)
    return grad_w, grad_b


def grad_text_loss(logit_rows: np.ndarray, targets) -> np.ndarray:
    """d(text_loss)/dlogits: (softmax - onehot)/(T-1) per scored row."""
    logits, targets = _scored_rows(logit_rows, targets)
    grad = np.zeros_like(logits)
    scored = logits[1:]
    ids = targets[1:] - 1
    shifted = scored - scored.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    softmax[np.arange(len(ids)), ids] -= 1.0
    grad[1:] = softmax / (logits.shape[0] - 1)
    return grad
