"""Fixed-weight multilayer generator networks.

The prior is a plain feed-forward stack of affine maps with entrywise
activations, mapping a latent vector of length ``k`` to a signal of length
``n``.  Weights are frozen at construction; there is no training here.
Forward evaluation, reverse-mode latent gradients and latent descent are
implemented directly on numpy arrays.

Weight file format (little-endian, documented for interchange):

    bytes 0..7   magic b"GPRIORW1"
    uint32       number of layers d
    d records, each:
        uint32   in_dim
        uint32   out_dim
        uint8    activation tag (0=identity, 1=relu, 2=tanh)
        float64  weights, out_dim*in_dim values, row-major
        float64  bias, out_dim values

The byte stream is written exactly from the in-memory float64 arrays, so a
save/load round trip is bitwise exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import as_count, as_matrix, as_real, as_vector

__all__ = [
    "Layer",
    "GeneratorNet",
    "forward",
    "latent_gradient",
    "random_generator",
    "save_weights",
    "load_weights",
    "estimate_diameter",
]

ACTIVATIONS = ("identity", "relu", "tanh")
_ACT_TAG = {"identity": 0, "relu": 1, "tanh": 2}
_TAG_ACT = {v: k for k, v in _ACT_TAG.items()}

_MAGIC = b"GPRIORW1"
_ALIGN = 64  # bytes: one cache line


def _aligned_copy(a):
    """A C-ordered copy of ``a`` whose data starts on a cache line.

    Plain copies start wherever the heap has room, which varies with what
    the process allocated before.  A 784x200 weight matrix at 32 bytes past
    a line made each default-size projection step 10-30% slower than one on
    a line (2-vCPU Xeon, OpenBLAS 0.3.31), so a command's speed depended on
    its process's allocation history.  Values and bits are unchanged.
    """
    buf = np.empty(a.nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str

    def __post_init__(self):
        w = as_matrix(self.weights, "layer weights")
        b = as_vector(self.bias, "layer bias", w.shape[0])
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        # Read-only copies: one net is shared by every solve and sweep
        # worker, and a copy leaves the caller's arrays writable.
        w, b = _aligned_copy(w), b.copy()
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class GeneratorNet:
    """Immutable generator: latent_dim -> ... -> output_dim."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("generator needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer dimension chain broken: {prev.out_dim} -> {nxt.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def latent_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim

    @property
    def depth(self):
        return len(self.layers)


def _forward_cached(net, z):
    """The forward layer loop: G(z) and the output of every layer.

    ``h @ W.T`` serves single latents and batches alike; for a single latent
    it gives the same bits as ``W @ h``.  Each layer makes one array: the
    product is always a new one, and the bias and the activation are
    applied to it in place, with the bits of ``act(h @ W.T + b)``; z and
    the earlier outputs are never written.  The cached layer outputs are
    the inputs of the next layer, so caching them holds no extra memory.
    """
    acts = []
    h = z
    for layer in net.layers:
        h = h @ layer.weights.T
        h += layer.bias
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        elif layer.activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def _backward(net, acts, cotangent):
    """The backward layer loop: the latent gradient of <cotangent, G(z)>,
    given the layer outputs ``acts`` that ``_forward_cached`` cached at z.

    The activation derivatives are read off the outputs: relu'(u) = [h > 0]
    and tanh'(u) = 1 - h^2.  ``g @ W`` serves single cotangents and (batch,
    n) blocks alike; for a single cotangent it gives the same bits as
    ``W.T @ g``.
    """
    g = cotangent
    for layer, h in zip(reversed(net.layers), reversed(acts)):
        if layer.activation == "relu":
            g = g * (h > 0.0)
        elif layer.activation == "tanh":
            g = g * (1.0 - h ** 2)
        g = g @ layer.weights
    return g


def _descend(net, z, steps, rate, measure, visit):
    """``steps`` steps of latent gradient descent on the rows of ``z``, the
    one loop of the projection and both latent baselines; returns the last
    (z, G(z)).  ``measure(G(z))`` gives each row's loss and its cotangent on
    G(z); ``visit(loss, z, G(z))`` sees the rows at the start and after
    every step.  A row steps only while its latent and its loss stay finite
    (a finite loss needs a finite G(z)), and otherwise freezes at its last
    finite step.  Rows are independent: each has the bits of its own descent.
    """
    # Diverging rows (and starts) overflow, then meet inf - inf, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        gx, acts = _forward_cached(net, z)
        loss, cot = measure(gx)
        visit(loss, z, gx)
        for step in range(steps):
            z_next = z - rate * _backward(net, acts, cot)
            gx_next, acts_next = _forward_cached(net, z_next)
            loss_next, cot_next = measure(gx_next)
            # One sum is the cheapest test: inf and NaN carry through it.
            if not math.isfinite(loss_next.sum() + z_next.sum()):
                ok = np.isfinite(loss_next) & np.isfinite(z_next).all(axis=-1)
                if not ok.any():  # no row steps now, so none ever will
                    for _ in range(step, steps):
                        visit(loss, z, gx)
                    return z, gx
                keep = ok[..., None]
                z_next = np.where(keep, z_next, z)
                gx_next = np.where(keep, gx_next, gx)
                acts_next = [np.where(keep, a, b) for a, b in zip(acts_next, acts)]
                loss_next = np.where(ok, loss_next, loss)
                cot_next = np.where(keep, cot_next, cot)
            z, gx, acts, loss, cot = z_next, gx_next, acts_next, loss_next, cot_next
            visit(loss, z, gx)
    return z, gx


def _as_latent(net, z):
    """``z`` as float64: a single latent (k,) or a batch (batch, k)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ValueError(f"z must be 1-D or 2-D, got shape {z.shape}")
    if z.shape[-1] != net.latent_dim:
        raise ValueError(
            f"latent length {z.shape[-1]} does not match generator k={net.latent_dim}"
        )
    return z


def forward(net, z):
    """Evaluate the generator at ``z``.

    Accepts a single latent vector of shape (k,) or a batch of shape
    (batch, k); the output has matching leading shape.
    """
    return _forward_cached(net, _as_latent(net, z))[0]


def latent_gradient(net, z, cotangent):
    """Reverse-mode gradient of <cotangent, G(z)> with respect to z.

    Accepts a single latent (k,) with a cotangent (n,), or a batch (batch,
    k) with a cotangent block (batch, n); each row is its own gradient.
    The relu derivative at exactly 0 is taken to be 0.
    """
    z = _as_latent(net, z)
    g = np.asarray(cotangent, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("z contains non-finite entries")
    if g.shape != z.shape[:-1] + (net.output_dim,):
        raise ValueError(
            f"cotangent shape {g.shape} does not match z shape {z.shape} "
            f"and output dim {net.output_dim}"
        )
    return _backward(net, _forward_cached(net, z)[1], g)


def random_generator(k, hidden_dims, n, activation, rng, weight_scale=1.0,
                     bias_scale=0.0):
    """Random fixed-weight generator with the given dimension chain.

    Hidden layers use ``activation``; the output layer is affine (identity
    activation).  Weights are i.i.d. Gaussian(0, weight_scale^2 / fan_in),
    biases Gaussian(0, bias_scale^2); bias_scale defaults to 0 (bias-free).
    """
    dims = ([as_count(k, "k")] + [as_count(h, "hidden_dims entry")
                                  for h in hidden_dims] + [as_count(n, "n")])
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    weight_scale = as_real(weight_scale, "weight_scale")
    bias_scale = as_real(bias_scale, "bias_scale")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        w = rng.standard_normal((fan_out, fan_in))
        w *= weight_scale / np.sqrt(fan_in)  # in place: the bits of the product
        b = bias_scale * rng.standard_normal(fan_out)
        act = activation if i < len(dims) - 2 else "identity"
        layers.append(Layer(weights=w, bias=b, activation=act))
    return GeneratorNet(layers=tuple(layers))


def save_weights(net, path):
    """Write the generator to `path` in the documented binary format."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", net.depth))
        for layer in net.layers:
            fh.write(struct.pack("<IIB", layer.in_dim, layer.out_dim,
                                 _ACT_TAG[layer.activation]))
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def load_weights(path):
    """Read a generator written by :func:`save_weights`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 4 or data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a generator weight file (bad magic)")
    off = len(_MAGIC)
    (depth,) = struct.unpack_from("<I", data, off)
    off += 4
    layers = []
    for i in range(depth):
        if off + 9 > len(data):
            raise ValueError(f"{path}: truncated layer header in layer {i}")
        in_dim, out_dim, tag = struct.unpack_from("<IIB", data, off)
        off += 9
        if tag not in _TAG_ACT:
            raise ValueError(f"{path}: unknown activation tag {tag} in layer {i}")
        nw = out_dim * in_dim
        need = (nw + out_dim) * 8
        if off + need > len(data):
            raise ValueError(f"{path}: truncated layer payload in layer {i}")
        w = np.frombuffer(data, dtype="<f8", count=nw, offset=off).reshape(
            out_dim, in_dim
        )
        off += nw * 8
        b = np.frombuffer(data, dtype="<f8", count=out_dim, offset=off)
        off += out_dim * 8
        layers.append(Layer(weights=w, bias=b, activation=_TAG_ACT[tag]))
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes after last layer")
    return GeneratorNet(layers=tuple(layers))


def estimate_diameter(net, num_samples, rng):
    """Max pairwise distance among sampled range points (lower bound on the
    true range diameter)."""
    num_samples = as_count(num_samples, "num_samples", low=2)
    xs = forward(net, rng.standard_normal((num_samples, net.latent_dim)))
    # Pairwise squared distances via the Gram expansion.
    sq = np.sum(xs**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T)
    return float(np.sqrt(max(np.max(d2), 0.0)))
