import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flightwatch.autoenc import (
    AutoencoderModel,
    Conv1d,
    ConvTranspose1d,
    Crop,
    Dropout,
    TrainConfig,
    _Adam,
    load_model,
    mse_loss,
    save_model,
    train,
)
from flightwatch.preprocess import HeadingWindow, PreprocessConfig

# seeds frozen so no ReLU pre-activation sits within the finite-difference
# step of a kink (checked once; everything is deterministic)
GRADCHECK_MODEL_SEED = 3
GRADCHECK_INPUT_SEED = 100


def gradcheck(model, x, h=1e-4):
    """Max elementwise relative error between analytic and central-difference
    gradients over every parameter tensor."""
    model.loss_and_grads(x)
    grads = {name: g.copy() for name, g in model.gradients()}
    worst = 0.0
    for name, p in model.parameters():
        flat_p = p.reshape(-1)
        flat_g = grads[name].reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            lp = mse_loss(x, model.forward(x))
            flat_p[i] = orig - h
            lm = mse_loss(x, model.forward(x))
            flat_p[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = flat_g[i]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestShapes:
    def test_stride_chain_for_default_input(self):
        m = AutoencoderModel(input_length=25, seed=0)
        weighted = dict(m.weighted_layers())
        assert weighted["enc1"].output_length(25) == 13
        assert weighted["enc2"].output_length(13) == 7
        assert weighted["dec1"].output_length(7) == 14
        assert weighted["dec2"].output_length(14) == 28
        assert weighted["out"].output_length(28) == 28
        assert m.shape_chain()[0] == 25 and m.shape_chain()[-1] == 25
        # actual arrays agree with the arithmetic
        h = np.zeros((1, 25, 2))
        lengths = [h.shape[1]]
        for layer in m.layers:
            h = layer.forward(h)
            lengths.append(h.shape[1])
        assert lengths == m.shape_chain()

    @pytest.mark.parametrize("w", [8, 16, 25, 31, 40])
    def test_output_length_preserved(self, w):
        m = AutoencoderModel(input_length=w, seed=0)
        x = np.random.default_rng(w).normal(size=(3, w))
        assert m.forward(x).shape == (3, w)

    def test_length_mismatch_is_error(self):
        m = AutoencoderModel(input_length=25, seed=0)
        with pytest.raises(ValueError, match="length"):
            m.forward(np.zeros(30))

    def test_loss_and_grads_length_mismatch_is_error(self):
        m = AutoencoderModel(input_length=25, seed=0)
        with pytest.raises(ValueError, match="length"):
            m.loss_and_grads(np.zeros((2, 30)))
        with pytest.raises(ValueError, match="length"):
            m.loss_and_grads(np.zeros(30))

    def test_loss_and_grads_single_window_is_a_batch_of_one(self):
        m = AutoencoderModel(input_length=25, seed=0)
        x = np.random.default_rng(1).normal(size=25)
        assert m.loss_and_grads(x) == m.loss_and_grads(x[None, :])

    def test_too_short_input_length(self):
        with pytest.raises(ValueError):
            AutoencoderModel(input_length=4)


class TestForward:
    def test_zero_weight_model_outputs_biases(self):
        m = AutoencoderModel(input_length=25, rng=None)  # all-zero weights/biases
        x = np.random.default_rng(0).normal(size=25)
        assert np.all(m.forward(x) == 0.0)

    def test_infer_is_deterministic(self):
        m = AutoencoderModel(input_length=25, seed=5)
        x = np.random.default_rng(1).normal(size=25)
        assert np.array_equal(m.forward(x), m.forward(x))

    # training-mode dropout runs only through loss_and_grads
    def test_train_mode_needs_rng(self):
        m = AutoencoderModel(input_length=25, seed=5)
        with pytest.raises(ValueError, match="rng"):
            m.loss_and_grads(np.zeros(25), train=True)

    def test_train_mode_dropout_masks_differ(self):
        m = AutoencoderModel(input_length=25, seed=5)
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).normal(size=25)
        a = m.loss_and_grads(x, train=True, rng=rng)
        b = m.loss_and_grads(x, train=True, rng=rng)
        assert a != b
        # inference mode is dropout-free
        assert m.loss_and_grads(x) == pytest.approx(mse_loss(x, m.forward(x)), rel=1e-12)


class TestDropout:
    RATE = 0.2

    def test_drops_where_the_draw_is_below_rate(self):
        shape = (16, 13, 128)
        x = np.random.default_rng(1).normal(size=shape)
        twin = np.random.default_rng(7).random(shape)
        y = Dropout(self.RATE).forward(x.copy(), train=True, rng=np.random.default_rng(7))
        assert np.array_equal(y == 0.0, twin < self.RATE)

    def test_float64_matches_the_float_mask_bit_for_bit(self):
        shape = (32, 7, 50)
        data = np.random.default_rng(2)
        x, dy = data.normal(size=shape), data.normal(size=shape)
        x[0, 0, :] = -x[0, 0, :]  # signed zeros where dropped, as the float mask gives
        scale = np.where(np.random.default_rng(9).random(shape) < self.RATE,
                         0.0, 1.0 / (1.0 - self.RATE))
        layer = Dropout(self.RATE)
        y = layer.forward(x.copy(), train=True, rng=np.random.default_rng(9))
        assert y.tobytes() == (x * scale).tobytes()
        assert layer.backward(dy.copy()).tobytes() == (dy * scale).tobytes()

    def test_keeps_float32(self):
        shape = (4, 5, 6)
        x = np.random.default_rng(3).normal(size=shape)
        a = Dropout(self.RATE).forward(x.copy(), train=True, rng=np.random.default_rng(4))
        b = Dropout(self.RATE).forward(x.astype(np.float32), train=True,
                                       rng=np.random.default_rng(4))
        assert b.dtype == np.float32
        assert np.array_equal(a == 0.0, b == 0.0)


class TestDtype:
    @pytest.mark.parametrize("cls", [Conv1d, ConvTranspose1d])
    def test_layers_follow_their_input_dtype(self, cls):
        layer = cls(3, 4, 3, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(layer.in_channels, 9, 5))
        y64 = layer.forward(x)
        dx64 = layer.backward(np.ones_like(y64))
        dw64 = layer.dw
        layer.w, layer.b = layer.w.astype(np.float32), layer.b.astype(np.float32)
        y32 = layer.forward(x.astype(np.float32))
        dx32 = layer.backward(np.ones_like(y32))
        assert y32.dtype == dx32.dtype == layer.dw.dtype == layer.db.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dx32, dx64, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(layer.dw, dw64, rtol=1e-5, atol=1e-5)


class TestMseLoss:
    def test_identical(self):
        assert mse_loss(np.ones(25), np.ones(25)) == 0.0

    def test_arithmetic(self):
        assert mse_loss(np.zeros(25), np.full(25, 0.1)) == pytest.approx(0.01)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=25), rng.normal(size=25)
        assert mse_loss(a, b) == mse_loss(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(25), np.zeros(24))


class TestGradients:
    def test_full_model_gradcheck(self):
        m = AutoencoderModel(input_length=25, seed=GRADCHECK_MODEL_SEED)
        x = np.random.default_rng(GRADCHECK_INPUT_SEED).normal(scale=2.0, size=(2, 25))
        assert gradcheck(m, x, h=1e-4) < 1e-4

    @pytest.mark.parametrize("kernel", [2, 3, 4])
    def test_conv_layer_gradients(self, kernel):
        rng = np.random.default_rng(4)
        layer = Conv1d(2, 3, kernel, 2, rng)
        x = rng.normal(size=(2, 9, 2))
        r = rng.normal(size=layer.forward(x).shape)
        layer.forward(x)
        dx = layer.backward(r.copy())
        h = 1e-6
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(np.sum(layer.forward(x) * r))
            flat[i] = orig - h
            lm = float(np.sum(layer.forward(x) * r))
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            assert num == pytest.approx(dx.reshape(-1)[i], abs=1e-6, rel=1e-5)

    @pytest.mark.parametrize("kernel", [2, 3, 4])
    def test_transpose_layer_gradients(self, kernel):
        rng = np.random.default_rng(6)
        for stride in (1, 2):
            layer = ConvTranspose1d(2, 3, kernel, stride, rng)
            x = rng.normal(size=(2, 6, 2))
            r = rng.normal(size=layer.forward(x).shape)
            layer.forward(x)
            dx = layer.backward(r.copy())
            h = 1e-6
            flat = x.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = float(np.sum(layer.forward(x) * r))
                flat[i] = orig - h
                lm = float(np.sum(layer.forward(x) * r))
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                assert num == pytest.approx(dx.reshape(-1)[i], abs=1e-6, rel=1e-5)


class TestBackwardTrims:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_crop_backward_is_np_pad(self, dtype):
        crop = Crop(25)
        dy = np.random.default_rng(1).normal(size=(1, 25, 7)).astype(dtype)
        crop.forward(np.zeros((1, 28, 7), dtype=dtype))
        dx = crop.backward(dy)
        expected = np.pad(dy, ((0, 0), (0, 3), (0, 0)))
        assert dx.dtype == expected.dtype and dx.tobytes() == expected.tobytes()

    def test_first_layer_without_dx_gives_the_full_backward_weight_gradients(self):
        rng = np.random.default_rng(8)
        layer = Conv1d(1, 32, 3, 2, rng)
        x = rng.normal(size=(1, 25, 5)).astype(np.float32)
        dy = rng.normal(size=layer.forward(x).shape).astype(np.float32)
        assert layer.backward(dy.copy()) is not None
        dw, db = layer.dw, layer.db
        assert layer.backward(dy.copy(), need_dx=False) is None
        assert layer.dw.tobytes() == dw.tobytes() and layer.db.tobytes() == db.tobytes()

    def test_adam_step_is_the_concatenated_gradient_update(self):
        model = AutoencoderModel(input_length=25, seed=5)
        config = TrainConfig()
        adam = _Adam(model, config)
        x = np.random.default_rng(9).normal(size=(6, 25)).astype(np.float32)
        for _ in range(2):
            model.loss_and_grads(x, train=True, rng=np.random.default_rng(2))
            g = np.concatenate([d.ravel() for _, d in model.gradients()])
            m = adam.m * adam.beta1 + (1.0 - adam.beta1) * g
            v = adam.v * adam.beta2 + (1.0 - adam.beta2) * (g * g)
            t = adam.t + 1
            theta = adam.theta - config.learning_rate * (m / (1.0 - adam.beta1 ** t)) / (
                np.sqrt(v / (1.0 - adam.beta2 ** t)) + adam.epsilon)
            adam.step(model)
            assert adam.theta.tobytes() == theta.tobytes()


class TestAdjoint:
    """ConvTranspose1d(2, 3) is the adjoint of Conv1d(3, 2) over short * stride
    samples when the two share one weight array.  Both biases start at zero, so
    Conv1d.forward is the bare correlation."""

    @staticmethod
    def _pair(kernel, stride):
        rng = np.random.default_rng(10 * kernel + stride)
        conv = Conv1d(3, 2, kernel, stride, rng)
        tconv = ConvTranspose1d(2, 3, kernel, stride)
        tconv.w = conv.w
        return conv, tconv, rng

    @pytest.mark.parametrize("short", [6, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", range(1, 7))
    def test_inner_products_agree(self, kernel, stride, short):
        conv, tconv, rng = self._pair(kernel, stride)
        x = rng.normal(size=(3, short * stride, 4))
        y = rng.normal(size=(2, short, 4))
        cx = conv.forward(x)
        assert cx.shape == y.shape
        assert np.vdot(cx, y) == pytest.approx(np.vdot(x, tconv.forward(y)),
                                               rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", range(1, 7))
    def test_transpose_backward_is_conv_forward(self, kernel, stride):
        conv, tconv, rng = self._pair(kernel, stride)
        tconv.b = rng.normal(size=3)  # the transposed layer's bias never reaches dx
        x = rng.normal(size=(3, 7 * stride, 4))
        y = rng.normal(size=(2, 7, 4))
        tconv.forward(y)
        dx = tconv.backward(x.copy())
        conv.forward(x)
        conv.backward(y.copy())
        assert np.array_equal(dx, conv.forward(x))
        assert np.array_equal(tconv.dw, conv.dw)

    @pytest.mark.parametrize("length", [12, 13])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", range(1, 7))
    def test_shared_taps_match_padded_reference(self, kernel, stride, length):
        # both layers read one tap table, so check it once against explicit
        # same padding: ceil(length / stride) outputs, the odd pad on the right
        conv, _, rng = self._pair(kernel, stride)
        x = rng.normal(size=(3, length, 1))
        out = -(-length // stride)
        pad = max((out - 1) * stride + kernel - length, 0)
        xp = np.pad(x[:, :, 0], ((0, 0), (pad // 2, pad - pad // 2)))
        ref = [np.sum(conv.w * xp[None, :, j * stride:j * stride + kernel], axis=(1, 2))
               for j in range(out)]
        assert np.allclose(conv.forward(x)[:, :, 0], np.array(ref).T, rtol=1e-12, atol=1e-12)


def _held_arrays(model):
    """(layer kind, attribute) of each array a layer holds besides its
    parameters and their gradients."""
    held = []
    for layer in model.layers:
        for name, value in vars(layer).items():
            values = value if isinstance(value, tuple) else (value,)
            if name not in ("w", "b", "dw", "db") and any(
                    isinstance(v, np.ndarray) for v in values):
                held.append((layer.kind, name))
    return held


class TestInferenceKeepsNoState:
    def test_scoring_leaves_no_array_on_any_layer(self):
        m = AutoencoderModel(input_length=25, seed=0)
        x = np.random.default_rng(0).normal(scale=20.0, size=(300, 25))
        m.loss_and_grads(x[:8])  # a backward pass needs the caches
        assert _held_arrays(m)
        m.reconstruction_losses(x)
        assert _held_arrays(m) == []
        m.loss_and_grads(x[:8])
        m.forward(x[0])
        assert _held_arrays(m) == []

    def test_scoring_retains_no_memory(self):
        m = AutoencoderModel(input_length=25, seed=0)
        x = np.random.default_rng(1).normal(scale=20.0, size=(1024, 25))
        m.reconstruction_losses(x[:4])  # warm the tap tables
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            losses = m.reconstruction_losses(x)
            retained = tracemalloc.get_traced_memory()[0] - before - losses.nbytes
        finally:
            tracemalloc.stop()
        # the backward caches of a 1,024-row batch take 17.6 MB
        assert retained < 100_000


_INVARIANCE_SEED = 16  # a model whose 2-D batch product changes bits at 4, 5 and 7 rows


def _with_bad_rows(x):
    """``x`` with ten more rows mixed in, three of them among its first seven: rows
    of NaN, +inf, -inf, 1e308 and -1e308, each whole and in one sample."""
    bad = []
    for value in (np.nan, np.inf, -np.inf, 1e308, -1e308):
        row = x[0].copy()
        row[7] = value
        bad += [np.full(x.shape[1], value), row]
    return np.insert(x, [1, 2, 3, 5, 64, 127, 128, 300, 777, len(x)], bad, axis=0)


@pytest.fixture(scope="module")
def one_row_scores():
    """A model, 1,024 windows of ±20 degrees with the rows of :func:`_with_bad_rows`
    among them, and each window's loss scored on its own."""
    model = AutoencoderModel(input_length=25, seed=_INVARIANCE_SEED)
    x = _with_bad_rows(np.random.default_rng(0).normal(scale=20.0, size=(1024, 25)))
    with np.errstate(over="ignore", invalid="ignore"):
        one = np.concatenate([model.reconstruction_losses(x[i:i + 1]) for i in range(len(x))])
    return model, x, one


def _score_in_batches(model, x, sizes):
    """Losses of ``x`` scored in consecutive batches whose sizes cycle through ``sizes``."""
    parts, lo, k = [], 0, 0
    while lo < len(x):
        with np.errstate(over="ignore", invalid="ignore"):
            parts.append(model.reconstruction_losses(x[lo:lo + sizes[k % len(sizes)]]))
        lo += sizes[k % len(sizes)]
        k += 1
    return np.concatenate(parts)


class TestBatchInvariance:
    """A window's loss has the same bits in a batch of any size as on its own."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 7, 16, 33, 100, 119, 257, 1024])
    def test_uniform_batches_match_one_row_bits(self, one_row_scores, size):
        model, x, one = one_row_scores
        assert _score_in_batches(model, x, [size]).tobytes() == one.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 1024), max_size=6).flatmap(
        lambda extra: st.permutations([4, 5, 7, 119, *extra])))
    def test_any_split_matches_one_row_bits(self, one_row_scores, sizes):
        model, x, one = one_row_scores
        assert _score_in_batches(model, x, sizes).tobytes() == one.tobytes()

    def test_forward_of_a_batch_matches_forward_of_each_row(self, one_row_scores):
        model, x, _ = one_row_scores
        with np.errstate(over="ignore", invalid="ignore"):
            batch = model.forward(x[:7])
            rows = np.stack([model.forward(row) for row in x[:7]])
        assert batch.tobytes() == rows.tobytes()

    def test_loss_bits_do_not_depend_on_blas_threads(self):
        # BLAS reads its thread count once, at load, so each count needs a process
        script = (
            "import sys, numpy as np\n"
            "from flightwatch.autoenc import AutoencoderModel\n"
            f"m = AutoencoderModel(input_length=25, seed={_INVARIANCE_SEED})\n"
            "x = np.random.default_rng(0).normal(scale=20.0, size=(600, 25))\n"
            "for n in (1, 4, 119, 600):\n"
            "    parts = [m.reconstruction_losses(x[lo:lo + n]) for lo in range(0, 600, n)]\n"
            "    sys.stdout.write(np.concatenate(parts).tobytes().hex() + '\\n')\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            out[threads] = proc.stdout.split()
        assert len(out["1"]) == 4 and len(set(out["1"])) == 1
        assert out["1"] == out["2"]


class TestTraining:
    def test_constant_zero_windows_reach_tiny_loss(self):
        x = np.zeros((200, 25))
        model = train(x, TrainConfig(seed=1, max_epochs=50))
        assert model.final_loss < 1e-4

    def test_bit_reproducible(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 5, size=(300, 25))
        cfg = TrainConfig(seed=9, max_epochs=5)
        m1 = train(x, cfg)
        m2 = train(x, cfg)
        for (n1, p1), (n2, p2) in zip(m1.parameters(), m2.parameters()):
            assert n1 == n2
            assert np.array_equal(p1, p2)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train(np.empty((0, 25)), TrainConfig())

    @pytest.mark.parametrize("windows", [[], np.empty((0, 25))], ids=["list", "matrix"])
    def test_empty_training_set_message(self, windows):
        with pytest.raises(ValueError, match="training needs at least one window"):
            train(windows, TrainConfig())

    def test_non_finite_window_is_named(self):
        x = np.zeros((10, 25))
        x[3, 7] = np.nan
        x[6, 0] = np.inf
        with pytest.raises(ValueError, match=r"^training window 3 is not finite$"):
            train(x, TrainConfig())
        wins = [HeadingWindow("f", i, 2.5 * i, 2.5 * i + 5, row) for i, row in enumerate(x)]
        with pytest.raises(ValueError,
                           match=r"^training window 3 \(flight 'f' index 3\) is not finite$"):
            train(wins, TrainConfig())

    def test_float32_overflow_is_named_as_not_finite(self):
        x = np.zeros((10, 25))
        x[4, 2] = 1e39  # finite in float64, inf in float32
        with pytest.raises(ValueError, match=r"^training window 4 is not finite$"):
            train(x, TrainConfig())
        wins = [HeadingWindow("f", i, 2.5 * i, 2.5 * i + 5, row) for i, row in enumerate(x)]
        with pytest.raises(ValueError,
                           match=r"^training window 4 \(flight 'f' index 4\) is not finite$"):
            train(wins, TrainConfig())

    def test_returns_float64_weights_exact_in_float32(self, tmp_path):
        x = np.random.default_rng(8).normal(0, 3, size=(150, 25))
        model = train(x, TrainConfig(seed=6, max_epochs=3))
        for name, p in model.parameters():
            assert p.dtype == np.float64, name
            assert p.flags.owndata, name
            assert np.array_equal(p.astype(np.float32).astype(np.float64), p), name
        save_model(model, tmp_path / "a.json")
        loaded = load_model(tmp_path / "a.json")
        for (name, p), (_, q) in zip(model.parameters(), loaded.parameters()):
            assert p.tobytes() == q.tobytes(), name
        save_model(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert model.reconstruction_losses(x).dtype == np.float64
        assert np.array_equal(model.reconstruction_losses(x), loaded.reconstruction_losses(x))

    def test_loss_mostly_non_increasing(self):
        rng = np.random.default_rng(12)
        t = np.linspace(-0.5, 0.5, 25)
        x = rng.normal(0, 1, size=(4000, 25))
        pick = rng.random(4000) < 0.25
        x[pick] += rng.uniform(-30, 30, size=pick.sum())[:, None] * t[None, :]
        x -= x.mean(axis=1, keepdims=True)
        model = train(x, TrainConfig(seed=2, max_epochs=30))
        hist = np.array(model.loss_history)
        warmup = 5
        drops = np.diff(hist[warmup:]) <= 1e-12
        assert drops.mean() >= 0.95

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(min_delta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for field in ("learning_rate", "min_delta"):
            with pytest.raises(ValueError, match="^learning_rate and min_delta must be > 0$"):
                TrainConfig(**{field: math.nan})
        cfg = TrainConfig()
        assert (cfg.learning_rate, _Adam.beta1, _Adam.beta2, _Adam.epsilon) \
            == (1e-3, 0.9, 0.999, 1e-8)
        assert (cfg.batch_size, cfg.max_epochs, cfg.patience) == (128, 300, 20)

    def test_early_stopping_records_epochs(self):
        x = np.zeros((64, 25))
        cfg = TrainConfig(seed=1, max_epochs=200, patience=5)
        model = train(x, cfg)
        assert model.epochs_trained < 200
        assert model.epochs_trained == len(model.loss_history)

    def test_reconstruction_gap_on_synthetic(self):
        # train on smooth nominal windows; oscillatory windows must stand out
        rng = np.random.default_rng(21)
        t = np.linspace(0.0, 5.0, 25)
        nominal = []
        for _ in range(400):
            slope = rng.uniform(-6.0, 6.0)
            w = slope * t + rng.normal(0, 1.0, 25)
            nominal.append(w - w.mean())
        nominal = np.array(nominal)
        model = train(nominal, TrainConfig(seed=3, max_epochs=60))
        held_out = []
        anomalous = []
        for _ in range(100):
            slope = rng.uniform(-6.0, 6.0)
            w = slope * t + rng.normal(0, 1.0, 25)
            held_out.append(w - w.mean())
            a = rng.uniform(20, 60) * np.sin(2 * np.pi * t / rng.uniform(1, 4))
            a = a + rng.normal(0, 1.0, 25)
            anomalous.append(a - a.mean())
        loss_nominal = model.reconstruction_losses(np.array(held_out)).mean()
        loss_anomalous = model.reconstruction_losses(np.array(anomalous)).mean()
        assert loss_anomalous > loss_nominal


@pytest.fixture(scope="module")
def saved_doc(tmp_path_factory):
    """A calibrated model with window geometry, saved: its path and bytes."""
    x = np.random.default_rng(5).normal(0, 3, size=(100, 25))
    model = train(x, TrainConfig(seed=4, max_epochs=3), preprocess=PreprocessConfig())
    model.threshold = 0.3
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    return path, path.read_bytes()


class TestSerialization:
    def _trained(self, tmp_path):
        x = np.random.default_rng(5).normal(0, 3, size=(100, 25))
        model = train(x, TrainConfig(seed=4, max_epochs=3))
        model.threshold = 0.3
        path = tmp_path / "model.json"
        save_model(model, path)
        return model, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, path = self._trained(tmp_path)
        loaded = load_model(path)
        x = np.random.default_rng(6).normal(size=(4, 25))
        assert np.array_equal(model.forward(x), loaded.forward(x))
        for (_, p1), (_, p2) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p1, p2)
        assert loaded.threshold == model.threshold
        assert loaded.epochs_trained == model.epochs_trained
        assert loaded.seed == model.seed

    def test_save_load_save_identical_bytes(self, tmp_path):
        _, path = self._trained(tmp_path)
        loaded = load_model(path)
        path2 = tmp_path / "model2.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: not a flightwatch model (bad magic header)"

    def test_version_mismatch(self, tmp_path):
        model, path = self._trained(tmp_path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: not a flightwatch model "
                                   f"(unsupported model version 99, expected 1)")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{truncated")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}: not a flightwatch model (JSONDecodeError: Expecting property name "
            f"enclosed in double quotes: line 1 column 2 (char 1))")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_mutation_reencodes_to_itself_or_is_rejected(self, saved_doc, data):
        """One edit of a saved document: ``load_model`` either returns a usable
        model that saves to the edited file's own bytes, or raises a ValueError
        that names the file."""
        path, original = saved_doc
        doc = json.loads(original)
        places = [doc, doc["meta"], *doc["layers"]]

        def weights():
            return doc["layers"][data.draw(st.integers(0, 4))][data.draw(
                st.sampled_from(["w", "b"]))]

        kind = data.draw(st.sampled_from(["drop", "type", "non-finite", "layer", "length"]))
        if kind == "drop":
            place = data.draw(st.sampled_from(places))
            del place[data.draw(st.sampled_from(sorted(place)))]
        elif kind == "type":
            place = data.draw(st.sampled_from(places))
            key = data.draw(st.sampled_from(sorted(place)))
            place[key] = data.draw(st.one_of(
                st.none(), st.booleans(), st.integers(-2, 10 ** 6), st.floats(-50, 50),
                st.text("0123456789.e-", max_size=3), st.lists(st.integers(0, 40), max_size=3),
                st.just({})).filter(lambda v: type(v) is not type(place[key])))
        elif kind == "non-finite":
            value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            numbers = [k for k, v in doc["meta"].items() if type(v) in (int, float)]
            if data.draw(st.booleans()):
                doc["meta"][data.draw(st.sampled_from(numbers))] = value
            else:
                row = weights()
                row[data.draw(st.integers(0, len(row) - 1))] = value
        elif kind == "layer":
            spec = data.draw(st.sampled_from(doc["layers"]))
            key = data.draw(st.sampled_from(["name", "kind", "in_channels", "out_channels",
                                             "kernel_size", "stride"]))
            spec[key] = data.draw(st.text(max_size=6) if isinstance(spec[key], str)
                                  else st.integers(0, 64))
        else:
            row = weights()
            if data.draw(st.booleans()):
                row.pop(data.draw(st.integers(0, len(row) - 1)))
            else:
                row.insert(data.draw(st.integers(0, len(row))), 0.5)
        edited = path.parent / "edited.json"
        edited.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        try:
            model = load_model(edited)
        except ValueError as exc:
            assert str(exc).startswith(f"{edited}: not a flightwatch model (")
            return
        assert all(np.isfinite(p).all() for _, p in model.parameters())
        assert model.threshold is None or 0 < model.threshold < math.inf
        assert model.n_consecutive >= 1
        resaved = path.parent / "resaved.json"
        save_model(model, resaved)
        assert resaved.read_bytes() == edited.read_bytes()

    @pytest.mark.parametrize("meta", [{"kernel_size": 1_000_000},
                                      {"filters": [100_000, 100_000]}],
                             ids=["kernel-size", "filters"])
    def test_weights_meta_sizes_but_the_file_lacks_allocate_nothing(self, saved_doc, tmp_path,
                                                                    meta):
        path, original = saved_doc
        doc = json.loads(original)
        doc["meta"].update(meta)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load_model(edited)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value).startswith(f"{edited}: not a flightwatch model (")
        assert peak < 5_000_000

    @pytest.mark.parametrize("edit, why", [
        (lambda m: m.enc2.b.__setitem__(0, math.nan),
         "layer 'enc2' has a weight that is not finite"),
        (lambda m: setattr(m, "window_length", 6.0),
         "window geometry (6.0, 2.5, 5.0) is not of 25 samples"),
        (lambda m: setattr(m, "threshold", 0.0), "threshold 0.0 is not null or in (0, inf)"),
        (lambda m: setattr(m, "n_consecutive", 0), "n_consecutive 0 is less than 1"),
    ], ids=["nan-bias", "geometry-of-30-samples", "threshold-0", "n-consecutive-0"])
    def test_model_that_load_model_rejects_is_not_saved(self, saved_doc, tmp_path, edit, why):
        model = load_model(saved_doc[0])
        edit(model)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError) as info:
            save_model(model, path)
        assert str(info.value) == f"{path}: not saved ({why})"
        assert not path.exists()

    def test_wrong_window_length_input(self, tmp_path):
        _, path = self._trained(tmp_path)
        loaded = load_model(path)
        with pytest.raises(ValueError, match="length"):
            loaded.forward(np.zeros(30))
