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
Training runs each layer's ``forward`` and ``backward`` on a batch-last
(channels, length, batch) block, one product for the whole batch, and
``forward`` keeps what ``backward`` reads in the layer's ``_cache``.
Inference is one function, ``AutoencoderModel._infer``, which runs each
layer's step on a batch-first (batch, channels, length) stack instead: one
product per window, of the shape a single window gets, so a window's loss
bits depend neither on the batch it is scored in nor on the BLAS thread
count.  It clears every ``_cache``, so scoring leaves no array on any layer.

Training runs in float32, which halves the bytes each step moves; the trained
weights are handed back as float64, so scoring, calibration and the saved
model all compute in float64.  Every layer computes in its input's dtype.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flightdata import write_json
from .preprocess import PreprocessConfig

FORMAT_MAGIC = "flightwatch-model"
FORMAT_VERSION = 1

# Rows scored per chunk by reconstruction_losses: a bound on the memory a call
# holds (about 2.3 MB of layer intermediates at 128 rows), which a window's
# bits do not depend on.
_SCORE_BATCH = 128


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@functools.lru_cache(maxsize=256)  # a model uses a handful of shapes
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
    return out, tuple(taps)


def _gather(x: np.ndarray, kernel: int, out: int, taps, axis: int) -> np.ndarray:
    """im2col along ``axis``, the long axis: a kernel axis of ``kernel`` and a
    short axis of ``out`` take its place.  (c, length, n) becomes
    (c, kernel, out, n) for axis 1, and (n, c, length) becomes
    (n, c, kernel, out) for axis 2."""
    lead = (slice(None),) * axis
    cols = np.zeros(x.shape[:axis] + (kernel, out) + x.shape[axis + 1:], dtype=x.dtype)
    for kk, short, long in taps:
        cols[lead + (kk, short)] = x[lead + (long,)]
    return cols


def _scatter(cols: np.ndarray, length: int, taps, axis: int) -> np.ndarray:
    """col2im, the adjoint of :func:`_gather`: columns summed back onto the long axis."""
    lead = (slice(None),) * axis
    x = np.zeros(cols.shape[:axis] + (length,) + cols.shape[axis + 2:], dtype=cols.dtype)
    for kk, short, long in taps:
        x[lead + (long,)] += cols[lead + (kk, short)]
    return x


class Conv1d:
    """Same-padded strided 1D convolution (cross-correlation).

    ``forward`` takes a batch-last (channels, length, batch) block and runs
    one matrix product for the whole batch.  ``w`` is (short-side channels,
    long-side channels, k).
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
        flat = _gather(x, self.kernel_size, out, taps, 1).reshape(-1, out * x.shape[2])
        return flat, (self.w.reshape(len(self.w), -1) @ flat).reshape(-1, out, x.shape[2])

    def _correlate_adjoint(self, y: np.ndarray, length: int) -> np.ndarray:
        """Short (c, out, n) back onto a long axis of ``length`` samples."""
        _, taps = _taps(length, self.stride, self.kernel_size)
        cols = self.w.reshape(len(self.w), -1).T @ y.reshape(len(self.w), -1)
        return _scatter(cols.reshape(self.w.shape[1], self.kernel_size, *y.shape[1:]),
                        length, taps, 1)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        flat, y = self._correlate(x)
        y += self.b[:, None, None]
        self._cache = (flat, x.shape[1])
        return y

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Leave ``dw`` and ``db`` on the layer; return the input gradient,
        or None without computing it when ``need_dx`` is false."""
        flat, length = self._cache
        self.dw = (dy.reshape(self.out_channels, -1) @ flat.T).reshape(self.w.shape)
        self.db = dy.sum(axis=(1, 2))
        return self._correlate_adjoint(dy, length) if need_dx else None


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
    _cache = None

    def output_length(self, length: int) -> int:
        return length

    def forward(self, x, train=False, rng=None):
        # x is this layer's own fresh buffer; rectify in place
        self._cache = x > 0
        np.maximum(x, 0.0, out=x)
        return x

    def backward(self, dy):
        np.multiply(dy, self._cache, out=dy)
        return dy


class Dropout:
    """Inverted dropout; identity at inference time.  A position is dropped
    where its uniform draw is below ``rate``; kept ones are scaled by
    ``1/(1-rate)``."""

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._cache = None

    def output_length(self, length: int) -> int:
        return length

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._cache = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self._cache = rng.random(x.shape) >= self.rate
        return self._apply(x)

    def backward(self, dy):
        if self._cache is None:
            return dy
        return self._apply(dy)

    def _apply(self, x):
        np.multiply(x, self._cache, out=x)
        x *= 1.0 / (1.0 - self.rate)
        return x


class Crop:
    """Keep the first ``target`` samples; backward zero-pads the tail."""

    kind = "crop"

    def __init__(self, target: int):
        self.target = target
        self._cache = None

    def output_length(self, length: int) -> int:
        if length < self.target:
            raise ValueError(f"cannot crop length {length} to {self.target}")
        return self.target

    def forward(self, x, train=False, rng=None):
        self._cache = x.shape[1]
        return x[:, :self.target, :]

    def backward(self, dy):
        dx = np.zeros((dy.shape[0], self._cache, dy.shape[2]), dtype=dy.dtype)
        dx[:, :self.target] = dy
        return dx


# The weighted layers, encoder first, in the order their weights are drawn:
# name, type, input and output channels as indices into (1, *filters), stride.
_ARCHITECTURE = (("enc1", Conv1d, 0, 1, 2), ("enc2", Conv1d, 1, 2, 2),
                 ("dec1", ConvTranspose1d, 2, 2, 2), ("dec2", ConvTranspose1d, 2, 1, 2),
                 ("out", ConvTranspose1d, 1, 0, 1))


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
        channels = (1, *self.filters)
        for name, kind, i, o, stride in _ARCHITECTURE:
            setattr(self, name, kind(channels[i], channels[o], kernel_size, stride, rng))
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
        return [(name, getattr(self, name)) for name, *_ in _ARCHITECTURE]

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

    def _infer(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct an (n, W) matrix, keeping nothing on any layer.  Each
        layer runs on a batch-first (n, c, length) stack: one product per
        window, the one a (c, length, 1) block gets in the layer's ``forward``."""
        h = x[:, None, :]
        for layer in self.layers:
            layer._cache = None  # no backward follows inference
            # a step frees its columns before its input: glibc trims its heap by
            # the order of frees, and the other order faulted 742 pages a 119-row call
            match layer.kind:
                case "conv":
                    out, taps = _taps(h.shape[2], layer.stride, layer.kernel_size)
                    h = np.matmul(layer.w.reshape(len(layer.w), -1), _gather(
                        h, layer.kernel_size, out, taps, 2).reshape(len(h), -1, out))
                    h += layer.b[:, None]
                case "conv_transpose":
                    length = layer.output_length(h.shape[2])
                    _, taps = _taps(length, layer.stride, layer.kernel_size)
                    h = _scatter(np.matmul(layer.w.reshape(len(layer.w), -1).T, h).reshape(
                        len(h), layer.out_channels, layer.kernel_size, -1), length, taps, 2)
                    h += layer.b[:, None]
                case "relu":
                    np.maximum(h, 0.0, out=h)
                case "crop":
                    h = h[:, :, :layer.target]
        return h[:, 0, :]

    def forward(self, values) -> np.ndarray:
        """Reconstruct one window or a batch of windows, inference mode.

        Input length must match the model's input_length.  Training runs
        through :meth:`loss_and_grads`.
        """
        x = np.asarray(values, dtype=float)
        y = self._infer(_window_matrix(x, self.input_length))
        return y[0] if x.ndim == 1 else y

    def loss_and_grads(self, x: np.ndarray, *, train: bool = False,
                       rng: np.random.Generator | None = None) -> float:
        """MSE reconstruction loss of a batch; leaves gradients on the layers."""
        x = _window_matrix(x, self.input_length)
        # internal layout is (channels, length, batch)
        h = np.ascontiguousarray(x.T)[None, :, :]
        for layer in self.layers:
            h = layer.forward(h, train=train, rng=rng)
        diff = h[0].T - x
        loss = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff
        h = np.ascontiguousarray(grad.T)[None, :, :]
        for layer in reversed(self.layers[1:]):
            h = layer.backward(h)
        self.layers[0].backward(h, need_dx=False)  # the input gradient has no use
        return loss

    def reconstruction_losses(self, windows) -> np.ndarray:
        """Per-window MSE reconstruction loss, inference mode.  A window's loss
        has the same bits in a batch of any size as on its own."""
        x = _window_matrix(windows, self.input_length)
        losses = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], _SCORE_BATCH):
            xb = x[lo:lo + _SCORE_BATCH]
            rb = self._infer(xb)
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
    """Learning rate and schedule for autoencoder training."""

    learning_rate: float = 1e-3
    batch_size: int = 128
    max_epochs: int = 300
    patience: int = 20
    min_delta: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0 and self.min_delta > 0):
            raise ValueError("learning_rate and min_delta must be > 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be >= 1")


class _Adam:
    """Adam over one flat float32 vector that holds every parameter of a model.

    While it trains, each layer's ``w`` and ``b`` are views into that vector,
    so one step is one set of array operations; :meth:`release` gives the
    layers float64 weights again.
    """

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, model: AutoencoderModel, config: TrainConfig):
        self.learning_rate = config.learning_rate
        self.layers = [layer for _, layer in model.weighted_layers()]
        self.theta = np.concatenate([p.ravel() for _, p in model.parameters()]).astype(np.float32)
        # each parameter's span of theta, in the order of model.gradients()
        self.spans = []
        offset = 0
        for layer in self.layers:
            for name in ("w", "b"):
                p = getattr(layer, name)
                span = slice(offset, offset + p.size)
                setattr(layer, name, self.theta[span].reshape(p.shape))
                self.spans.append(span)
                offset += p.size
        self.g = np.empty_like(self.theta)
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self.t = 0

    def step(self, model: AutoencoderModel) -> None:
        g = self.g
        for span, (_, d) in zip(self.spans, model.gradients()):
            g[span] = d.ravel()
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        self.theta -= self.learning_rate * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.epsilon)

    def release(self) -> None:
        """Replace the views with float64 copies; float32 to float64 is exact."""
        for layer in self.layers:
            layer.w = layer.w.astype(np.float64)
            layer.b = layer.b.astype(np.float64)


def _window_matrix(windows, expected_length: int | None = None) -> np.ndarray:
    if isinstance(windows, np.ndarray):
        # a float32 matrix is training's own and stays float32
        x = windows if windows.dtype == np.float32 else np.asarray(windows, dtype=float)
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
          preprocess=None) -> AutoencoderModel:
    """Train an autoencoder on nominal heading windows.

    ``windows`` is a sequence of HeadingWindow (or a raw (n, W) matrix); a
    window with a value that is not finite in float32 is an error.  Every
    step runs in float32; the returned weights are float64.
    Early stopping watches the training loss itself: training halts once no
    epoch improves the best loss by more than ``min_delta`` for ``patience``
    consecutive epochs.  Given the same seed and data, the returned weights
    are bit-for-bit identical across runs.
    """
    x = _window_matrix(windows)
    if x.shape[0] == 0:
        raise ValueError("training needs at least one window")
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
        x = x.astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        w = windows[bad[0]]
        name = f" (flight {w.flight_id!r} index {w.index})" if hasattr(w, "flight_id") else ""
        raise ValueError(f"training window {bad[0]}{name} is not finite")
    rng = np.random.default_rng(config.seed)
    model = AutoencoderModel(input_length=x.shape[1], rng=rng)
    model.seed = config.seed
    if preprocess is not None:
        if preprocess.window_samples != x.shape[1]:
            raise ValueError(
                f"preprocess config implies {preprocess.window_samples} samples per window "
                f"but data has {x.shape[1]}")
        model.sample_rate = preprocess.sample_rate
        model.window_length = preprocess.window_length
        model.overlap = preprocess.overlap
    adam = _Adam(model, config)
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
            adam.step(model)
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
    adam.release()
    model.epochs_trained = len(history)
    model.final_loss = history[-1]
    model.loss_history = history
    return model


def _optional(read):
    return lambda value: None if value is None else read(value)


# How each meta value is read and written: as the type its model attribute holds.
_META = {
    "input_length": int, "filters": lambda value: [int(f) for f in value], "kernel_size": int,
    "dropout": float, "sample_rate": _optional(float), "window_length": _optional(float),
    "overlap": _optional(float), "threshold": _optional(float), "n_consecutive": int,
    "seed": _optional(int), "epochs_trained": int, "final_loss": _optional(float),
    "loss_history": lambda value: [float(x) for x in value],
}


def _model_doc(model: AutoencoderModel) -> dict:
    """The document :func:`save_model` writes, which a loaded file must equal; ValueError
    for a weight not finite, window geometry neither all null nor a :class:`PreprocessConfig`
    of ``input_length`` samples, a threshold not null or in (0, inf), or n_consecutive < 1."""
    meta = {key: read(getattr(model, key)) for key, read in _META.items()}
    for name, layer in model.weighted_layers():
        if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
            raise ValueError(f"layer {name!r} has a weight that is not finite")
    geom = (meta["window_length"], meta["overlap"], meta["sample_rate"])
    if geom != (None,) * 3 and PreprocessConfig(*geom).window_samples != meta["input_length"]:
        raise ValueError(f"window geometry {geom} is not of {meta['input_length']} samples")
    if not (meta["threshold"] is None or 0 < meta["threshold"] < math.inf):
        raise ValueError(f"threshold {meta['threshold']!r} is not null or in (0, inf)")
    if meta["n_consecutive"] < 1:
        raise ValueError(f"n_consecutive {meta['n_consecutive']} is less than 1")
    return {"format": FORMAT_MAGIC, "version": FORMAT_VERSION, "meta": meta,
            "layers": [{"name": name, "kind": layer.kind, "in_channels": layer.in_channels,
                        "out_channels": layer.out_channels, "kernel_size": layer.kernel_size,
                        "stride": layer.stride, "w": layer.w.ravel().tolist(),
                        "b": layer.b.tolist()} for name, layer in model.weighted_layers()]}


def save_model(model: AutoencoderModel, path) -> None:
    """Serialize a model to versioned JSON with full-precision weights; a model that
    :func:`_model_doc` rejects is ``ValueError("<path>: not saved (<why>)")``, unwritten."""
    try:
        doc = _model_doc(model)
    except ValueError as exc:
        raise ValueError(f"{path}: not saved ({exc})") from None
    write_json(doc, path)


def _difference(new, old, where: str = "") -> str | None:
    """The path (such as ``/meta/threshold``) of the first value of ``old`` that
    is not ``new`` as JSON, where 1, 1.0 and true differ; None if there is none."""
    if type(new) is list and new and type(new[0]) is dict:  # compared item by item
        new, old = dict(enumerate(new)), dict(enumerate(old)) if type(old) is list else old
    if type(new) is dict:
        if type(old) is not dict or old.keys() != new.keys():
            return where or "/"
        return next(filter(None, (_difference(new[k], old[k], f"{where}/{k}")
                                  for k in sorted(new))), None)
    if type(new) is not list:  # as one-item lists, so that a NaN equals itself
        new, old = [new], [old]
    same = type(old) is list and new == old and list(map(type, new)) == list(map(type, old))
    return None if same else where


def load_model(path) -> AutoencoderModel:
    """Load a model saved by :func:`save_model`; the round trip is bit-exact.

    Any other file is ``ValueError("<path>: not a flightwatch model (<why>)")``:
    one whose layers do not hold the weights its ``meta`` sizes (checked
    before any array is allocated), one that :func:`_model_doc` rejects, and
    one that does not re-encode to itself."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_MAGIC:
            raise ValueError("bad magic header")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')!r}, "
                             f"expected {FORMAT_VERSION}")
        values = {key: read(doc["meta"][key]) for key, read in _META.items()}
        channels, k = (1, *values["filters"]), values["kernel_size"]
        sizes = [(channels[i] * channels[o] * k, channels[o]) for _, _, i, o, _ in _ARCHITECTURE]
        if [(len(spec["w"]), len(spec["b"])) for spec in doc["layers"]] != sizes:
            raise ValueError(f"layers do not hold the {sizes} weights and biases of meta")
        model = AutoencoderModel(values.pop("input_length"), values.pop("filters"),
                                 values.pop("kernel_size"), values.pop("dropout"))
        vars(model).update(values)
        for (_, layer), spec in zip(model.weighted_layers(), doc["layers"]):
            layer.w = np.array(spec["w"], dtype=float).reshape(layer.w.shape)
            layer.b = np.array(spec["b"], dtype=float).reshape(layer.b.shape)
        where = _difference(_model_doc(model), doc)
        if where is not None:
            raise ValueError(f"{where} does not re-encode to itself")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        why = str(exc) if type(exc) is ValueError else f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: not a flightwatch model ({why})") from None
    return model
