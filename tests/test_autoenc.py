import json

import numpy as np
import pytest

from flightwatch.autoenc import (
    AutoencoderModel,
    Conv1d,
    ConvTranspose1d,
    TrainConfig,
    load_model,
    mse_loss,
    save_model,
    train,
)

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

    def test_train_mode_needs_rng(self):
        m = AutoencoderModel(input_length=25, seed=5)
        with pytest.raises(ValueError, match="rng"):
            m.forward(np.zeros(25), mode="train")

    def test_train_mode_dropout_masks_differ(self):
        m = AutoencoderModel(input_length=25, seed=5)
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).normal(size=25)
        a = m.forward(x, mode="train", rng=rng)
        b = m.forward(x, mode="train", rng=rng)
        assert not np.array_equal(a, b)

    def test_bad_mode(self):
        m = AutoencoderModel(input_length=25, seed=5)
        with pytest.raises(ValueError):
            m.forward(np.zeros(25), mode="predict")


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
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon) \
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
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model, path = self._trained(tmp_path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{truncated")
        with pytest.raises(ValueError, match="corrupt"):
            load_model(path)

    def test_wrong_window_length_input(self, tmp_path):
        _, path = self._trained(tmp_path)
        loaded = load_model(path)
        with pytest.raises(ValueError, match="length"):
            loaded.forward(np.zeros(30))
