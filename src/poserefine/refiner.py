"""Bidirectional GRU + attention denoiser for joint-angle windows.

The model maps a fixed-length window of one joint's angle series to a
refined window of the same length.  Input is centered on its window mean
and scaled by 1/pi; two stacked bidirectional GRU layers encode the
normalized series; a single attention read (query = projected mean state)
summarizes the window; and a per-timestep linear head predicts a residual
correction that is scaled back to radians and added onto the raw input.
A model whose weights are all zero is therefore exactly the identity.

Training runs in float64: `batch_gradients` keeps every step's gates for
its hand-written reverse mode, which the test suite checks against
central finite differences.  Inference runs the same forward code in the
dtype `refine_batch` is given (float32 for `refine`) and keeps no
backward cache: the gates and candidate state live in one per-step
buffer each.  Inputs and outputs stay float64; the network's correction
is added onto the float64 input, so a float32 run rounds only that.

The public functions take batch-major (B, L) windows, but the GRU layers
run time-major: states, gate caches and their gradients are (L, B, ·)
arrays, so each of the per-step numpy calls reads and writes one
contiguous (B, ·) block.  Batch-major, those blocks are B rows spaced a
whole window apart, and the step loops are most of the refine time.
Attention and the output head read the top layer through a batch-major
view.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModelError, ModelFormatError, ShapeError

_GATES = ("z", "r", "h")
_MAGIC = b"JARM"
_VERSION = 1
# the largest window a corpus shard can record: its length field is <u2
MAX_WINDOW = 65535


def parameter_shapes(hidden: int, d_att: int) -> dict:
    """Name -> shape table for every trainable tensor."""
    shapes: dict[str, tuple] = {}
    for layer, d_in in (("l1", 1), ("l2", 2 * hidden)):
        for direction in ("fwd", "bwd"):
            prefix = f"{layer}.{direction}"
            for g in _GATES:
                shapes[f"{prefix}.W_{g}"] = (d_in, hidden)
                shapes[f"{prefix}.U_{g}"] = (hidden, hidden)
                shapes[f"{prefix}.b_{g}"] = (hidden,)
    shapes["att.W_q"] = (2 * hidden, d_att)
    shapes["att.W_k"] = (2 * hidden, d_att)
    shapes["head.W_o"] = (4 * hidden, 1)
    shapes["head.b_o"] = (1,)
    return shapes


@dataclass
class RefinerModel:
    """Hyperparameters plus a flat name -> float64 array parameter dict."""

    hidden: int
    d_att: int
    window: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.hidden < 1 or self.d_att < 1 or not (2 <= self.window <= MAX_WINDOW):
            raise ShapeError(f"hidden and d_att must be >= 1, window in [2, {MAX_WINDOW}]")
        expected = parameter_shapes(self.hidden, self.d_att)
        if set(self.params) != set(expected):
            missing = sorted(set(expected) - set(self.params))
            extra = sorted(set(self.params) - set(expected))
            raise ShapeError(f"parameter names mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=float)
            if arr.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {arr.shape}")
            self.params[name] = arr

    @classmethod
    def init_random(cls, hidden: int = 64, d_att: int = 32, window: int = 100, seed: int = 0):
        """Uniform fan-in init for weights, zero biases."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        params = {}
        for name, shape in parameter_shapes(hidden, d_att).items():
            if name.split(".")[-1].startswith("b"):
                params[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform(-bound, bound, size=shape)
        return cls(hidden=hidden, d_att=d_att, window=window, params=params)

    @classmethod
    def identity(cls, hidden: int = 64, d_att: int = 32, window: int = 100):
        """All-zero weights: refine_batch returns its input unchanged."""
        params = {
            name: np.zeros(shape)
            for name, shape in parameter_shapes(hidden, d_att).items()
        }
        return cls(hidden=hidden, d_att=d_att, window=window, params=params)

    def cell(self, prefix: str) -> dict:
        """View of one GRU cell's nine tensors, keys W_z..b_h."""
        return {
            f"{kind}_{g}": self.params[f"{prefix}.{kind}_{g}"]
            for g in _GATES
            for kind in ("W", "U", "b")
        }


def _sigmoid_inplace(x: np.ndarray) -> None:
    # tanh form avoids overflow for large |x|
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


def _direction_forward(x: np.ndarray, cell: dict, keep_cache: bool):
    """Run one direction over x (L, B, d_in); returns h (L, B, H) and a cache.

    Everything is time-major: h is (L+1, B, H), the input projections
    (L, B, 3H), the z/r gates one (L, B, 2H) cache and the candidate state
    (L, B, H).  Each step therefore touches contiguous (B, ·) blocks; as B
    rows spaced a window apart, the same blocks made every element-wise
    call of a large batch several times slower.  The input projections run
    as one large GEMM up front, and the recurrent z/r product is written
    straight into the gate cache, where the sigmoid is applied in place.

    The step computes in x.dtype.  Without keep_cache the gates and the
    candidate state are one (B, ·) buffer each, reused at every step, and
    the cache is None.
    """
    length, b, d_in = x.shape
    dtype = x.dtype
    hidden = cell["b_z"].size
    w_in = np.concatenate([cell["W_z"], cell["W_r"], cell["W_h"]], axis=1, dtype=dtype)
    b_in = np.concatenate([cell["b_z"], cell["b_r"], cell["b_h"]], dtype=dtype)
    xproj = (x.reshape(length * b, d_in) @ w_in + b_in).reshape(length, b, 3 * hidden)
    u_zr = np.concatenate([cell["U_z"], cell["U_r"]], axis=1, dtype=dtype)
    u_h = cell["U_h"].astype(dtype, copy=False)

    # h holds the zero initial state at index 0; outputs live at 1..L
    h = np.zeros((length + 1, b, hidden), dtype)
    steps = length if keep_cache else 1
    zr_all = np.empty((steps, b, 2 * hidden), dtype)
    hc_all = np.empty((steps, b, hidden), dtype)
    rh = np.empty((b, hidden), dtype)
    for t in range(length):
        hp = h[t]
        slot = t if keep_cache else 0
        zr = zr_all[slot]
        np.matmul(hp, u_zr, out=zr)
        zr += xproj[t, :, : 2 * hidden]
        _sigmoid_inplace(zr)
        np.multiply(zr[:, hidden:], hp, out=rh)
        hc = hc_all[slot]
        np.matmul(rh, u_h, out=hc)
        hc += xproj[t, :, 2 * hidden :]
        np.tanh(hc, out=hc)
        # h_new = hp + z * (hc - hp)
        hn = h[t + 1]
        np.subtract(hc, hp, out=hn)
        hn *= zr[:, :hidden]
        hn += hp
    cache = {"x": x, "h": h, "zr": zr_all, "hc": hc_all} if keep_cache else None
    return h[1:], cache


def _direction_backward(cache: dict, cell: dict, dh_seq: np.ndarray):
    """BPTT through one direction on (L, B, ·) arrays; returns (dx, grads)."""
    x = cache["x"]
    h = cache["h"]  # (L+1, B, H) with the zero initial state at index 0
    zr_all, hc_all = cache["zr"], cache["hc"]
    length, b, hidden = hc_all.shape
    d_in = x.shape[2]
    h_prev = h[:-1]

    da_zr = np.empty((length, b, 2 * hidden))
    dah = np.empty((length, b, hidden))
    u_zr_t = np.concatenate([cell["U_z"], cell["U_r"]], axis=1).T.copy()
    u_h_t = cell["U_h"].T.copy()
    dh = np.zeros((b, hidden))  # gradient of the state, carried backwards
    drh = np.empty((b, hidden))
    tmp = np.empty((b, hidden))
    for t in range(length - 1, -1, -1):
        z = zr_all[t, :, :hidden]
        r = zr_all[t, :, hidden:]
        hc = hc_all[t]
        hp = h_prev[t]
        dh += dh_seq[t]
        da_z = da_zr[t, :, :hidden]
        da_r = da_zr[t, :, hidden:]
        da_h = dah[t]
        # dz = dh*(hc-hp); da_z = dz*z*(1-z)
        np.subtract(hc, hp, out=da_z)
        da_z *= dh
        da_z *= z
        np.subtract(1.0, z, out=tmp)
        da_z *= tmp
        # da_h = dh*z*(1-hc^2)
        np.multiply(dh, z, out=da_h)
        np.multiply(hc, hc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        da_h *= tmp
        np.matmul(da_h, u_h_t, out=drh)
        # dr = drh*hp; da_r = dr*r*(1-r)
        np.multiply(drh, hp, out=da_r)
        da_r *= r
        np.subtract(1.0, r, out=tmp)
        da_r *= tmp
        # dh becomes the gradient of the previous state
        np.subtract(1.0, z, out=tmp)
        dh *= tmp
        drh *= r
        dh += drh
        np.matmul(da_zr[t], u_zr_t, out=tmp)
        dh += tmp

    rh = zr_all[:, :, hidden:] * h_prev
    x2 = x.reshape(length * b, d_in)
    da_zr2 = da_zr.reshape(length * b, 2 * hidden)
    dah2 = dah.reshape(length * b, hidden)
    dw_zr = x2.T @ da_zr2
    dw_h = x2.T @ dah2
    hp2 = h_prev.reshape(length * b, hidden)
    du_zr = hp2.T @ da_zr2
    du_h = rh.reshape(length * b, hidden).T @ dah2
    grads = {
        "W_z": dw_zr[:, :hidden],
        "W_r": dw_zr[:, hidden:],
        "W_h": dw_h,
        "U_z": du_zr[:, :hidden],
        "U_r": du_zr[:, hidden:],
        "U_h": du_h,
        "b_z": da_zr2[:, :hidden].sum(axis=0),
        "b_r": da_zr2[:, hidden:].sum(axis=0),
        "b_h": dah2.sum(axis=0),
    }
    w_all_t = np.concatenate(
        [cell["W_z"], cell["W_r"], cell["W_h"]], axis=1
    ).T.copy()
    da_all = np.concatenate([da_zr2, dah2], axis=1)
    dx = (da_all @ w_all_t).reshape(length, b, d_in)
    return dx, grads


def _bigru_forward(x: np.ndarray, model: RefinerModel, layer: str, keep_cache: bool):
    """Both directions of one layer over x (L, B, d_in); out is (L, B, 2H)."""
    hf, cache_f = _direction_forward(x, model.cell(f"{layer}.fwd"), keep_cache)
    hb_rev, cache_b = _direction_forward(x[::-1], model.cell(f"{layer}.bwd"), keep_cache)
    out = np.concatenate([hf, hb_rev[::-1]], axis=2)
    return out, (cache_f, cache_b)


def _bigru_backward(cache, model: RefinerModel, layer: str, dout: np.ndarray):
    cache_f, cache_b = cache
    hidden = model.hidden
    dxf, gf = _direction_backward(cache_f, model.cell(f"{layer}.fwd"), dout[:, :, :hidden])
    dxb, gb = _direction_backward(
        cache_b, model.cell(f"{layer}.bwd"), dout[::-1, :, hidden:]
    )
    grads = {}
    for name, g in gf.items():
        grads[f"{layer}.fwd.{name}"] = g
    for name, g in gb.items():
        grads[f"{layer}.bwd.{name}"] = g
    return dxf + dxb[::-1], grads


def _attention_forward(h2: np.ndarray, wq: np.ndarray, wk: np.ndarray):
    # a Python float, so that float32 scores are not promoted to float64
    scale = 1.0 / math.sqrt(wq.shape[1])
    hbar = h2.mean(axis=1)
    q = hbar @ wq
    k = h2 @ wk
    scores = np.einsum("bld,bd->bl", k, q) * scale
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=1, keepdims=True)
    context = np.einsum("bl,blh->bh", alpha, h2)
    return {
        "hbar": hbar,
        "q": q,
        "k": k,
        "alpha": alpha,
        "context": context,
        "scale": scale,
    }


def _attention_backward(h2, att, wq, wk, dh2, dcontext):
    """Fold attention gradients into dh2 (modified in place) and weight grads."""
    alpha = att["alpha"]
    dalpha = np.einsum("bh,blh->bl", dcontext, h2)
    dh2 += alpha[:, :, None] * dcontext[:, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dscores = dscores * att["scale"]
    dk = dscores[:, :, None] * att["q"][:, None, :]
    dq = np.einsum("bld,bl->bd", att["k"], dscores)
    dwk = np.tensordot(h2, dk, axes=([0, 1], [0, 1]))
    dh2 += dk @ wk.T
    dwq = att["hbar"].T @ dq
    dhbar = dq @ wq.T
    dh2 += dhbar[:, None, :] / h2.shape[1]
    return dwq, dwk


def _forward(x: np.ndarray, model: RefinerModel, dtype, keep_cache: bool):
    """Full forward pass on a float64 batch (B, L); returns (refined, cache).

    The network computes in dtype: the normalized input is cast once and
    transposed to (L, B, 1) for the GRU layers, and attention and the head
    read h2 (L, B, 2H) through a batch-major view.  The residual is added
    onto the float64 x, so the output is float64 and an all-zero model
    returns x exactly.  Without keep_cache the GRU caches are None.
    """
    mu = x.mean(axis=1, keepdims=True)
    u = (x - mu) / np.pi
    u_tm = np.ascontiguousarray(u.T, dtype=dtype)[:, :, None]
    h1, cache1 = _bigru_forward(u_tm, model, "l1", keep_cache)
    h2, cache2 = _bigru_forward(h1, model, "l2", keep_cache)
    h2_bm = h2.transpose(1, 0, 2)
    p = {
        name: model.params[name].astype(dtype, copy=False)
        for name in ("att.W_q", "att.W_k", "head.W_o", "head.b_o")
    }
    att = _attention_forward(h2_bm, p["att.W_q"], p["att.W_k"])
    wo = p["head.W_o"][:, 0]
    wo_h = wo[: 2 * model.hidden]
    wo_c = wo[2 * model.hidden :]
    head = h2_bm @ wo_h + (att["context"] @ wo_c)[:, None] + p["head.b_o"]
    out = x + np.pi * head
    return out, {"x": x, "h2": h2, "cache1": cache1, "cache2": cache2, "att": att}


def _backward(dout: np.ndarray, cache, model: RefinerModel) -> dict:
    h2 = cache["h2"]  # (L, B, 2H)
    att = cache["att"]
    wo = model.params["head.W_o"][:, 0]
    wo_h = wo[: 2 * model.hidden]
    wo_c = wo[2 * model.hidden :]

    dhead = np.pi * dout.T  # (L, B)
    db_o = dhead.sum()
    dwo_h = dhead.reshape(-1) @ h2.reshape(-1, 2 * model.hidden)
    dh2 = dhead[:, :, None] * wo_h
    dhead_sum = dhead.sum(axis=0)
    dwo_c = att["context"].T @ dhead_sum
    dcontext = dhead_sum[:, None] * wo_c

    # the batch-major views write attention's gradient into dh2 in place
    dwq, dwk = _attention_backward(
        h2.transpose(1, 0, 2),
        att,
        model.params["att.W_q"],
        model.params["att.W_k"],
        dh2.transpose(1, 0, 2),
        dcontext,
    )
    dh1, grads2 = _bigru_backward(cache["cache2"], model, "l2", dh2)
    _, grads1 = _bigru_backward(cache["cache1"], model, "l1", dh1)

    grads = {}
    grads.update(grads1)
    grads.update(grads2)
    grads["att.W_q"] = dwq
    grads["att.W_k"] = dwk
    grads["head.W_o"] = np.concatenate([dwo_h, dwo_c])[:, None]
    grads["head.b_o"] = np.array([db_o])
    return grads


def refine_batch(noisy: np.ndarray, model: RefinerModel, dtype=np.float64) -> np.ndarray:
    """Refine a batch of windows, shape (B, L) -> float64 (B, L).

    The network computes in dtype and keeps no backward cache.
    """
    noisy = np.asarray(noisy, dtype=float)
    if noisy.ndim != 2 or noisy.shape[1] != model.window:
        raise ShapeError(
            f"batch must be (n, {model.window}), got {noisy.shape}"
        )
    out, _ = _forward(noisy, model, dtype, keep_cache=False)
    return out


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over every element."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeError("prediction and truth shapes differ")
    diff = pred - truth
    return float(np.mean(diff * diff))


def batch_gradients(noisy: np.ndarray, truth: np.ndarray, model: RefinerModel):
    """Loss and parameter gradients of the batch MSE; (B, L) inputs."""
    noisy = np.asarray(noisy, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if noisy.shape != truth.shape or noisy.ndim != 2:
        raise ShapeError("noisy and truth must both be (n, window)")
    out, cache = _forward(noisy, model, np.float64, keep_cache=True)
    diff = out - truth
    loss = float(np.mean(diff * diff))
    dout = (2.0 / diff.size) * diff
    return loss, _backward(dout, cache, model)


# ---------------------------------------------------------------------------
# serialization


def save_model(model: RefinerModel, path) -> None:
    """Write magic, version, hyperparameters, then the sorted tensor table."""
    chunks = [
        _MAGIC,
        struct.pack("<IIII", _VERSION, model.hidden, model.d_att, model.window),
        struct.pack("<I", len(model.params)),
    ]
    for name in sorted(model.params):
        arr = np.ascontiguousarray(model.params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CorruptModelError("model file is truncated")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path) -> RefinerModel:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != _MAGIC:
        raise ModelFormatError("bad magic; not a refiner model file")
    version, hidden, d_att, window = reader.unpack("<IIII")
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    if not (2 <= window <= MAX_WINDOW):
        raise CorruptModelError(f"model window {window} outside [2, {MAX_WINDOW}]")
    (count,) = reader.unpack("<I")
    expected = parameter_shapes(hidden, d_att)
    if count != len(expected):
        raise CorruptModelError(
            f"model lists {count} tensors, expected {len(expected)}"
        )
    params = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        # an undecodable name becomes U+FFFD, which no expected tensor has
        name = reader.take(name_len).decode("utf-8", errors="replace")
        (rank,) = reader.unpack("<I")
        shape = reader.unpack(f"<{rank}I")
        if name not in expected:
            raise CorruptModelError(f"unexpected tensor {name!r}")
        if shape != expected[name]:
            raise CorruptModelError(
                f"tensor {name!r} has shape {shape}, expected {expected[name]}"
            )
        n_vals = int(np.prod(shape, dtype=np.int64)) if rank else 1
        raw = reader.take(8 * n_vals)
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if reader.pos != len(reader.data):
        raise CorruptModelError("trailing bytes after the tensor table")
    if set(params) != set(expected):
        raise CorruptModelError("duplicate or missing tensors in the table")
    return RefinerModel(hidden=hidden, d_att=d_att, window=window, params=params)
