"""1D convolutional autoencoder with hand-rolled backpropagation and Adam.

The encoder halves the sequence length twice with strided same-padded
convolutions; the decoder mirrors it with transposed convolutions and a final
linear reconstruction layer whose output is cropped back to the input length.
Each transposed convolution is the adjoint of the encoder's correlation: both
layers share one tap table and one im2col/col2im pair, with the roles of
forward and backward swapped.
Dropout is active only during training; inference is deterministic.  Training
is bit-reproducible given the seed: weight init, shuffle order, and the
dropout stream all come from one generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

FORMAT_MAGIC = "flightwatch-model"
FORMAT_VERSION = 1

# Rows scored per product by reconstruction_losses.  Fixed, not a knob: under
# OpenBLAS a window's loss bits depend on the size of the batch it is scored in.
_SCORE_BATCH = 1024


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _taps(length: int, stride: int, kernel: int):
    """Same-padded strided correlation of a long axis of ``length`` samples with
    a short one of ``out = ceil(length / stride)``: at kernel offset kk, short
    position j pairs with long position j*s + kk - pl (pl the left padding).
    Returns ``out`` and a ``(kk, short slice, long slice)`` per offset that
    is not wholly padding."""
    out = _ceil_div(length, stride)
    pl = max((out - 1) * stride + kernel - length, 0) // 2
    taps = []
    for kk in range(kernel):
        j0 = max(0, _ceil_div(pl - kk, stride))
        j1 = min(out - 1, (length - 1 - kk + pl) // stride)
        if j0 <= j1:
            p0 = j0 * stride + kk - pl
            taps.append((kk, slice(j0, j1 + 1), slice(p0, p0 + (j1 - j0 + 1) * stride, stride)))
    return out, taps


def _gather(x: np.ndarray, kernel: int, out: int, taps) -> np.ndarray:
    """im2col: (c, length, n) long signal to (c, kernel, out, n) columns."""
    cols = np.zeros((x.shape[0], kernel, out, x.shape[2]))
    for kk, short, long in taps:
        cols[:, kk, short, :] = x[:, long, :]
    return cols


def _scatter(cols: np.ndarray, length: int, taps) -> np.ndarray:
    """col2im, the adjoint of :func:`_gather`: columns summed back onto the long axis."""
    x = np.zeros((cols.shape[0], length, cols.shape[3]))
    for kk, short, long in taps:
        x[:, long, :] += cols[:, kk, short, :]
    return x


class Conv1d:
    """Same-padded strided 1D convolution (cross-correlation).

    Activations flow through the network in channels-first, batch-last layout
    (channels, length, batch) so each layer is a single large matrix product.
    ``w`` is (short-side channels, long-side channels, k).
    """

    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int, rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        shape = self._weight_shape()
        if rng is not None:
            limit = math.sqrt(6.0 / (in_channels * kernel_size))
            self.w = rng.uniform(-limit, limit, size=shape)
        else:
            self.w = np.zeros(shape)
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def _weight_shape(self) -> tuple[int, int, int]:
        return self.out_channels, self.in_channels, self.kernel_size

    def output_length(self, length: int) -> int:
        return _ceil_div(length, self.stride)

    def _correlate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Long (c, length, n) to short, unbiased; also returns the im2col columns."""
        out, taps = _taps(x.shape[1], self.stride, self.kernel_size)
        flat = _gather(x, self.kernel_size, out, taps).reshape(-1, out * x.shape[2])
        return flat, (self.w.reshape(len(self.w), -1) @ flat).reshape(-1, out, x.shape[2])

    def _correlate_adjoint(self, y: np.ndarray, length: int) -> np.ndarray:
        """Short (c, out, n) back onto a long axis of ``length`` samples."""
        _, taps = _taps(length, self.stride, self.kernel_size)
        cols = self.w.reshape(len(self.w), -1).T @ y.reshape(len(self.w), -1)
        return _scatter(cols.reshape(self.w.shape[1], self.kernel_size, *y.shape[1:]),
                        length, taps)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        flat, y = self._correlate(x)
        y += self.b[:, None, None]
        self._cache = (flat, x.shape[1])
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        flat, length = self._cache
        self.dw = (dy.reshape(self.out_channels, -1) @ flat.T).reshape(self.w.shape)
        self.db = dy.sum(axis=(1, 2))
        return self._correlate_adjoint(dy, length)


class ConvTranspose1d(Conv1d):
    """Same-padded strided 1D transposed convolution (output length = input * stride).

    The adjoint of a :class:`Conv1d` from ``out_channels`` to ``in_channels``
    over ``length * stride`` samples: forward is that convolution's input
    gradient, backward its forward pass.  The weight layout (in, out, k) is
    that convolution's own.
    """

    kind = "conv_transpose"

    def _weight_shape(self) -> tuple[int, int, int]:
        return self.in_channels, self.out_channels, self.kernel_size

    def output_length(self, length: int) -> int:
        return length * self.stride

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        y = self._correlate_adjoint(x, self.output_length(x.shape[1]))
        y += self.b[:, None, None]
        self._cache = x
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        flat, dx = self._correlate(dy)
        self.dw = (self._cache.reshape(self.in_channels, -1) @ flat.T).reshape(self.w.shape)
        self.db = dy.sum(axis=(1, 2))
        return dx


class Relu:
    kind = "relu"

    def __init__(self):
        self._mask = None

    def output_length(self, length: int) -> int:
        return length

    def forward(self, x, train=False, rng=None):
        # x is this layer's own fresh buffer; rectify in place
        self._mask = x > 0
        np.maximum(x, 0.0, out=x)
        return x

    def backward(self, dy):
        np.multiply(dy, self._mask, out=dy)
        return dy


class Dropout:
    """Inverted dropout; identity at inference time."""

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._mask = None

    def output_length(self, length: int) -> int:
        return length

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self._mask = np.where(rng.random(x.shape) < self.rate, 0.0,
                              1.0 / (1.0 - self.rate))
        np.multiply(x, self._mask, out=x)
        return x

    def backward(self, dy):
        if self._mask is None:
            return dy
        np.multiply(dy, self._mask, out=dy)
        return dy


class Crop:
    """Keep the first ``target`` samples; backward zero-pads the tail."""

    kind = "crop"

    def __init__(self, target: int):
        self.target = target
        self._full = None

    def output_length(self, length: int) -> int:
        if length < self.target:
            raise ValueError(f"cannot crop length {length} to {self.target}")
        return self.target

    def forward(self, x, train=False, rng=None):
        self._full = x.shape[1]
        return x[:, :self.target, :]

    def backward(self, dy):
        pad = self._full - dy.shape[1]
        return np.pad(dy, ((0, 0), (0, pad), (0, 0)))


class AutoencoderModel:
    """Convolutional autoencoder over fixed-length heading windows.

    Metadata carried for serialization and downstream detection: window
    geometry (sample rate, window length, overlap), the calibrated alarm
    threshold, the rolling-mean width, and training provenance (seed, epochs,
    final loss).
    """

    def __init__(self, input_length: int = 25, filters: tuple[int, int] = (32, 16),
                 kernel_size: int = 3, dropout: float = 0.2,
                 rng: np.random.Generator | None = None, *, seed: int | None = None):
        if input_length < 8:
            raise ValueError("input_length must be >= 8 for the stride chain")
        # no rng and no seed -> all-zero weights (deserialization fills them in)
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        f1, f2 = filters
        self.input_length = input_length
        self.filters = (int(f1), int(f2))
        self.kernel_size = kernel_size
        self.dropout = dropout
        self.enc1 = Conv1d(1, f1, kernel_size, 2, rng)
        self.enc2 = Conv1d(f1, f2, kernel_size, 2, rng)
        self.dec1 = ConvTranspose1d(f2, f2, kernel_size, 2, rng)
        self.dec2 = ConvTranspose1d(f2, f1, kernel_size, 2, rng)
        self.out = ConvTranspose1d(f1, 1, kernel_size, 1, rng)
        self.layers = [self.enc1, Relu(), Dropout(dropout),
                       self.enc2, Relu(),
                       self.dec1, Relu(), Dropout(dropout),
                       self.dec2, Relu(),
                       self.out, Crop(input_length)]
        self.threshold: float | None = None
        self.n_consecutive: int = 4
        self.sample_rate: float | None = None
        self.window_length: float | None = None
        self.overlap: float | None = None
        self.seed: int | None = seed
        self.epochs_trained: int = 0
        self.final_loss: float | None = None
        self.loss_history: list[float] = []

    def weighted_layers(self) -> list[tuple[str, Conv1d | ConvTranspose1d]]:
        return [("enc1", self.enc1), ("enc2", self.enc2),
                ("dec1", self.dec1), ("dec2", self.dec2), ("out", self.out)]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        params = []
        for name, layer in self.weighted_layers():
            params.append((f"{name}.w", layer.w))
            params.append((f"{name}.b", layer.b))
        return params

    def gradients(self) -> list[tuple[str, np.ndarray]]:
        grads = []
        for name, layer in self.weighted_layers():
            grads.append((f"{name}.w", layer.dw))
            grads.append((f"{name}.b", layer.db))
        return grads

    def shape_chain(self) -> list[int]:
        """Sequence lengths through the network, input first, cropped output last."""
        lengths = [self.input_length]
        for layer in self.layers:
            lengths.append(layer.output_length(lengths[-1]))
        return lengths

    def _run(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        # internal layout is (channels, length, batch)
        h = np.ascontiguousarray(x.T)[None, :, :]
        for layer in self.layers:
            h = layer.forward(h, train=train, rng=rng)
        return h[0].T

    def forward(self, values, mode: str = "infer",
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Reconstruct one window or a batch of windows.

        ``mode`` is "infer" (deterministic) or "train" (dropout active, rng
        required).  Input length must match the model's input_length.
        """
        if mode not in ("infer", "train"):
            raise ValueError(f"mode must be 'infer' or 'train', got {mode!r}")
        x = np.asarray(values, dtype=float)
        y = self._run(_window_matrix(x, self.input_length), train=(mode == "train"), rng=rng)
        return y[0] if x.ndim == 1 else y

    def loss_and_grads(self, x: np.ndarray, *, train: bool = False,
                       rng: np.random.Generator | None = None) -> float:
        """MSE reconstruction loss of a batch; leaves gradients on the layers."""
        x = _window_matrix(x, self.input_length)
        recon = self._run(x, train=train, rng=rng)
        diff = recon - x
        loss = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff
        h = np.ascontiguousarray(grad.T)[None, :, :]
        for layer in reversed(self.layers):
            h = layer.backward(h)
        return loss

    def reconstruction_losses(self, windows) -> np.ndarray:
        """Per-window MSE reconstruction loss, inference mode."""
        x = _window_matrix(windows, self.input_length)
        losses = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], _SCORE_BATCH):
            xb = x[lo:lo + _SCORE_BATCH]
            rb = self._run(xb, train=False, rng=None)
            losses[lo:lo + _SCORE_BATCH] = np.mean((rb - xb) ** 2, axis=1)
        return losses


def mse_loss(original, reconstruction) -> float:
    """Mean squared error between two equal-length arrays."""
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstruction, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class TrainConfig:
    """Adam and schedule hyperparameters for autoencoder training."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 300
    patience: int = 20
    min_delta: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.epsilon, self.min_delta) <= 0:
            raise ValueError("learning_rate, epsilon, and min_delta must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be >= 1")


class _Adam:
    def __init__(self, params: Sequence[np.ndarray], config: TrainConfig):
        self.config = config
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


def _window_matrix(windows, expected_length: int | None = None) -> np.ndarray:
    if isinstance(windows, np.ndarray):
        x = np.asarray(windows, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
    else:
        rows = [getattr(w, "values", w) for w in windows]
        # np.asarray([]) is 1-D; an empty sequence is a matrix of zero windows
        x = np.asarray(rows, dtype=float) if rows else np.empty((0, expected_length or 0))
    if x.ndim != 2:
        raise ValueError(f"expected a 2D window matrix, got shape {x.shape}")
    if expected_length is not None and x.shape[1] != expected_length:
        raise ValueError(f"expected windows of length {expected_length}, got {x.shape[1]}")
    return x


def train(windows, config: TrainConfig = TrainConfig(), *,
          filters: tuple[int, int] = (32, 16), kernel_size: int = 3,
          dropout: float = 0.2, preprocess=None) -> AutoencoderModel:
    """Train an autoencoder on nominal heading windows.

    ``windows`` is a sequence of HeadingWindow (or a raw (n, W) matrix).
    Early stopping watches the training loss itself: training halts once no
    epoch improves the best loss by more than ``min_delta`` for ``patience``
    consecutive epochs.  Given the same seed and data, the returned weights
    are bit-for-bit identical across runs.
    """
    x = _window_matrix(windows)
    if x.shape[0] == 0:
        raise ValueError("training needs at least one window")
    rng = np.random.default_rng(config.seed)
    model = AutoencoderModel(input_length=x.shape[1], filters=filters,
                             kernel_size=kernel_size, dropout=dropout, rng=rng)
    model.seed = config.seed
    if preprocess is not None:
        if preprocess.window_samples != x.shape[1]:
            raise ValueError(
                f"preprocess config implies {preprocess.window_samples} samples per window "
                f"but data has {x.shape[1]}")
        model.sample_rate = preprocess.sample_rate
        model.window_length = preprocess.window_length
        model.overlap = preprocess.overlap
    params = [p for _, p in model.parameters()]
    adam = _Adam(params, config)
    n = x.shape[0]
    best = math.inf
    stale = 0
    history: list[float] = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            loss = model.loss_and_grads(x[idx], train=True, rng=rng)
            adam.step(params, [g for _, g in model.gradients()])
            total += loss * idx.size
        epoch_loss = total / n
        history.append(epoch_loss)
        if best - epoch_loss > config.min_delta:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.epochs_trained = len(history)
    model.final_loss = history[-1]
    model.loss_history = history
    return model


def save_model(model: AutoencoderModel, path) -> None:
    """Serialize a model to versioned JSON with full-precision weights."""
    doc = {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "meta": {
            "input_length": model.input_length,
            "filters": list(model.filters),
            "kernel_size": model.kernel_size,
            "dropout": model.dropout,
            "sample_rate": model.sample_rate,
            "window_length": model.window_length,
            "overlap": model.overlap,
            "threshold": model.threshold,
            "n_consecutive": model.n_consecutive,
            "seed": model.seed,
            "epochs_trained": model.epochs_trained,
            "final_loss": model.final_loss,
            "loss_history": model.loss_history,
        },
        "layers": [
            {
                "name": name,
                "kind": layer.kind,
                "in_channels": layer.in_channels,
                "out_channels": layer.out_channels,
                "kernel_size": layer.kernel_size,
                "stride": layer.stride,
                "w": layer.w.ravel().tolist(),
                "b": layer.b.tolist(),
            }
            for name, layer in model.weighted_layers()
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_model(path) -> AutoencoderModel:
    """Load a model saved by :func:`save_model`; the round trip is bit-exact."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_MAGIC:
        raise ValueError("not a flightwatch model file (bad magic header)")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}, "
                         f"expected {FORMAT_VERSION}")
    meta = doc["meta"]
    model = AutoencoderModel(
        input_length=int(meta["input_length"]),
        filters=tuple(meta["filters"]),
        kernel_size=int(meta["kernel_size"]),
        dropout=float(meta["dropout"]),
        rng=None,
    )
    model.sample_rate = meta["sample_rate"]
    model.window_length = meta["window_length"]
    model.overlap = meta["overlap"]
    model.threshold = meta["threshold"]
    model.n_consecutive = int(meta["n_consecutive"])
    model.seed = meta["seed"]
    model.epochs_trained = int(meta["epochs_trained"])
    model.final_loss = meta["final_loss"]
    model.loss_history = list(meta.get("loss_history", []))
    by_name = dict(model.weighted_layers())
    seen = set()
    for spec in doc["layers"]:
        layer = by_name.get(spec["name"])
        if layer is None:
            raise ValueError(f"unknown layer {spec['name']!r} in model file")
        w = np.array(spec["w"], dtype=float).reshape(layer.w.shape)
        b = np.array(spec["b"], dtype=float)
        if b.shape != layer.b.shape:
            raise ValueError(f"layer {spec['name']!r}: bias shape mismatch")
        layer.w = w
        layer.b = b
        seen.add(spec["name"])
    missing = set(by_name) - seen
    if missing:
        raise ValueError(f"model file is missing layers: {sorted(missing)}")
    return model
