import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from styledialog.dialog import StyleVector
from styledialog.objectives import (ProjectionOut, grad_style_loss, grad_text_loss,
                                    project_out, style_loss, text_loss)
from conftest import prosodic


def random_proj(rng, hidden=6):
    return ProjectionOut(weights=rng.normal(size=(8, hidden)),
                         bias=rng.normal(size=8))


class TestProjections:
    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            ProjectionOut(weights=np.zeros((7, 4)), bias=np.zeros(8))

    def test_nonfinite_rejected(self):
        w = np.zeros((8, 4))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            ProjectionOut(weights=w, bias=np.zeros(8))

    def test_zero_projection(self):
        proj = ProjectionOut(weights=np.zeros((8, 4)), bias=np.zeros(8))
        out = project_out(np.ones(4), proj)
        assert out.values == (0.0,) * 8
        assert out.kind == "prosodic"

    def test_identity_like(self):
        w = np.hstack([np.eye(8), np.zeros((8, 2))])
        proj = ProjectionOut(weights=w, bias=np.zeros(8))
        h = np.arange(10, dtype=float)
        assert project_out(h, proj).values == tuple(h[:8])

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(0)
        proj = random_proj(rng)
        h = rng.normal(size=6)
        want = tuple(sum(proj.weights[i, j] * h[j] for j in range(6)) + proj.bias[i]
                     for i in range(8))
        got = project_out(h, proj).values
        assert np.allclose(got, want, atol=1e-12)

    def test_dim_mismatch(self):
        proj = random_proj(np.random.default_rng(0))
        with pytest.raises(ValueError):
            project_out(np.zeros(5), proj)

class TestStyleLoss:
    def test_identity_zero(self):
        s = prosodic([0.3] * 8)
        assert style_loss(s, s) == 0.0

    def test_single_unit_difference(self):
        a = prosodic([1.0] + [0.0] * 7)
        b = prosodic([0.0] * 8)
        assert style_loss(a, b) == pytest.approx(0.125)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.normal(size=8), rng.normal(size=8)
            want = sum(abs(x - y) for x, y in zip(a, b)) / 8
            assert style_loss(prosodic(a), prosodic(b)) == pytest.approx(want, abs=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            style_loss(StyleVector(values=(0.0,) * 8, kind="acoustic"),
                       prosodic([0.0] * 8))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (prosodic(rng.normal(size=8)) for _ in range(3))
        assert style_loss(a, b) == style_loss(b, a)
        assert style_loss(a, c) <= style_loss(a, b) + style_loss(b, c) + 1e-12


class TestTextLoss:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        targets = [1, 2, 3]
        assert text_loss(logits, targets) == pytest.approx(math.log(4))

    def test_large_margin_near_zero(self):
        logits = np.zeros((2, 5))
        logits[1, 2] = 20.0
        assert text_loss(logits, [1, 3]) < 1e-8

    def test_two_positions_plain_ce(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(2, 6))
        tgt = 4
        row = logits[1]
        want = math.log(np.sum(np.exp(row - row.max()))) - (row[tgt - 1] - row.max())
        assert text_loss(logits, [1, tgt]) == pytest.approx(want)

    def test_too_short(self):
        with pytest.raises(ValueError):
            text_loss(np.zeros((1, 4)), [1])

    def test_target_out_of_vocab(self):
        with pytest.raises(IndexError):
            text_loss(np.zeros((2, 4)), [1, 5])
        with pytest.raises(IndexError):
            text_loss(np.zeros((2, 4)), [1, 0])

    @given(seed=st.integers(0, 1000), shift=st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(1, 6, size=4)
        a = text_loss(logits, targets)
        b = text_loss(logits + shift, targets)
        assert a == pytest.approx(b, abs=1e-10)


def central_diff(f, x, eps):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


class TestGradStyleLoss:
    def test_identical_zero_gradient(self):
        rng = np.random.default_rng(6)
        proj = random_proj(rng)
        h = rng.normal(size=6)
        pred = project_out(h, proj)
        gw, gb = grad_style_loss(pred, h, proj)
        assert np.all(gw == 0) and np.all(gb == 0)

    def test_scalar_case_sign(self):
        # D=8 but only component 0 differs and pred > target
        proj = ProjectionOut(weights=np.zeros((8, 1)), bias=np.array([1.0] + [0.0] * 7))
        h = np.array([2.0])
        target = prosodic([0.0] * 8)
        gw, gb = grad_style_loss(target, h, proj)
        assert gb[0] == pytest.approx(1 / 8)
        assert gw[0, 0] == pytest.approx(2 / 8)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            w = rng.normal(size=(8, 6))
            b = rng.normal(size=8)
            h = rng.normal(size=6)
            target = prosodic(rng.normal(size=8))

            def loss():
                proj = ProjectionOut(weights=w.copy(), bias=b.copy())
                return style_loss(project_out(h, proj), target)

            proj = ProjectionOut(weights=w.copy(), bias=b.copy())
            pred = project_out(h, proj)
            gw, gb = grad_style_loss(target, h, proj)
            diff = np.abs(pred.as_array() - target.as_array())
            away = diff > 1e-6  # skip coordinates at the |.| kink
            num_w = central_diff(loss, w, 1e-5)
            num_b = central_diff(loss, b, 1e-5)
            mask_w = np.repeat(away[:, None], 6, axis=1)
            if mask_w.any():
                err = np.max(np.abs(gw - num_w)[mask_w]
                             / np.maximum(np.abs(num_w)[mask_w], 1e-8))
                worst = max(worst, err)
            if away.any():
                err = np.max(np.abs(gb - num_b)[away]
                             / np.maximum(np.abs(num_b)[away], 1e-8))
                worst = max(worst, err)
        assert worst < 1e-4


class TestGradTextLoss:
    def test_uniform_analytic(self):
        logits = np.zeros((3, 4))
        targets = [1, 2, 3]
        g = grad_text_loss(logits, targets)
        assert np.all(g[0] == 0)
        for row, tgt in zip(g[1:], targets[1:]):
            want = np.full(4, 0.25)
            want[tgt - 1] -= 1.0
            assert np.allclose(row, want / 2)

    def test_rows_sum_zero(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(1, 8, size=5)
        g = grad_text_loss(logits, targets)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            logits = rng.normal(size=(4, 6))
            targets = rng.integers(1, 7, size=4)
            g = grad_text_loss(logits, targets)
            num = central_diff(lambda: text_loss(logits, targets), logits, 1e-6)
            err = np.max(np.abs(g - num) / np.maximum(np.abs(num), 1e-6))
            worst = max(worst, err)
        assert worst < 1e-6
