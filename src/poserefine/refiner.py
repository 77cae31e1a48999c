"""Bidirectional GRU + attention denoiser for joint-angle windows.

The model maps a fixed-length window of one joint's angle series to a
refined window of the same length.  Input is centered on its window mean
and scaled by 1/pi; two stacked bidirectional GRU layers encode the
normalized series; a single attention read (query = projected mean state)
summarizes the window; and a per-timestep linear head predicts a residual
correction that is scaled back to radians and added onto the raw input.
A model whose weights are all zero is therefore exactly the identity.

Everything is plain float64 numpy.  Gradients are hand-written
reverse-mode; `batch_gradients` is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModelError, ModelFormatError, ShapeError

_GATES = ("z", "r", "h")
_MAGIC = b"JARM"
_VERSION = 1


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
        if self.hidden < 1 or self.d_att < 1 or self.window < 2:
            raise ShapeError("hidden and d_att must be >= 1, window >= 2")
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


def _direction_forward(x: np.ndarray, cell: dict):
    """Run one direction over (B, L, d_in); returns h (B, L, H) and a cache.

    Gate input projections run as one large GEMM up front; the step loop
    fuses the z/r recurrent products and reuses scratch buffers, which is
    what keeps single-core training within budget.
    """
    b, length, d_in = x.shape
    hidden = cell["b_z"].size
    w_in = np.concatenate([cell["W_z"], cell["W_r"], cell["W_h"]], axis=1)
    b_in = np.concatenate([cell["b_z"], cell["b_r"], cell["b_h"]])
    xproj = (x.reshape(b * length, d_in) @ w_in + b_in).reshape(b, length, 3 * hidden)
    u_zr = np.concatenate([cell["U_z"], cell["U_r"]], axis=1)
    u_h = cell["U_h"]

    # h holds the zero initial state at index 0; outputs live at 1..L
    h = np.zeros((b, length + 1, hidden))
    z_all = np.empty((b, length, hidden))
    r_all = np.empty((b, length, hidden))
    hc_all = np.empty((b, length, hidden))
    gates = np.empty((b, 2 * hidden))
    rh = np.empty((b, hidden))
    hc = np.empty((b, hidden))
    for t in range(length):
        hp = h[:, t]
        np.matmul(hp, u_zr, out=gates)
        gates += xproj[:, t, : 2 * hidden]
        _sigmoid_inplace(gates)
        z = z_all[:, t]
        r = r_all[:, t]
        z[...] = gates[:, :hidden]
        r[...] = gates[:, hidden:]
        np.multiply(r, hp, out=rh)
        np.matmul(rh, u_h, out=hc)
        hc += xproj[:, t, 2 * hidden :]
        np.tanh(hc, out=hc)
        hc_all[:, t] = hc
        # h_new = hp + z * (hc - hp)
        hn = h[:, t + 1]
        np.subtract(hc, hp, out=hn)
        hn *= z
        hn += hp
    out = h[:, 1:]
    return out, {"x": x, "h": h, "z": z_all, "r": r_all, "hc": hc_all}


def _direction_backward(cache: dict, cell: dict, dh_seq: np.ndarray):
    """BPTT through one direction; returns (dx, per-tensor grads)."""
    x = cache["x"]
    h = cache["h"]  # (B, L+1, H) with the zero initial state at index 0
    z_all, r_all, hc_all = cache["z"], cache["r"], cache["hc"]
    b, length, hidden = z_all.shape
    d_in = x.shape[2]
    h_prev = h[:, :-1]

    da_zr = np.empty((b, length, 2 * hidden))
    dah = np.empty((b, length, hidden))
    u_zr_t = np.concatenate([cell["U_z"], cell["U_r"]], axis=1).T.copy()
    u_h_t = cell["U_h"].T.copy()
    dhp = np.zeros((b, hidden))
    drh = np.empty((b, hidden))
    tmp = np.empty((b, hidden))
    for t in range(length - 1, -1, -1):
        z = z_all[:, t]
        r = r_all[:, t]
        hc = hc_all[:, t]
        hp = h_prev[:, t]
        dh = dhp
        dh += dh_seq[:, t]
        da_z = da_zr[:, t, :hidden]
        da_r = da_zr[:, t, hidden:]
        da_h = dah[:, t]
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
        # dhp for the next (earlier) step
        np.subtract(1.0, z, out=tmp)
        dh *= tmp  # dh buffer becomes dhp
        drh *= r
        dh += drh
        dhp = dh
        dhp += np.matmul(da_zr[:, t], u_zr_t)

    rh = r_all * h_prev
    x2 = x.reshape(b * length, d_in)
    da_zr2 = da_zr.reshape(b * length, 2 * hidden)
    dah2 = dah.reshape(b * length, hidden)
    dw_zr = x2.T @ da_zr2
    dw_h = x2.T @ dah2
    hp2 = np.ascontiguousarray(h_prev).reshape(b * length, hidden)
    du_zr = hp2.T @ da_zr2
    du_h = rh.reshape(b * length, hidden).T @ dah2
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
    dx = (da_all @ w_all_t).reshape(b, length, d_in)
    return dx, grads


def _bigru_forward(x: np.ndarray, model: RefinerModel, layer: str):
    hf, cache_f = _direction_forward(x, model.cell(f"{layer}.fwd"))
    hb_rev, cache_b = _direction_forward(x[:, ::-1], model.cell(f"{layer}.bwd"))
    out = np.concatenate([hf, hb_rev[:, ::-1]], axis=2)
    return out, (cache_f, cache_b)


def _bigru_backward(cache, model: RefinerModel, layer: str, dout: np.ndarray):
    cache_f, cache_b = cache
    hidden = model.hidden
    dxf, gf = _direction_backward(cache_f, model.cell(f"{layer}.fwd"), dout[:, :, :hidden])
    dxb, gb = _direction_backward(
        cache_b, model.cell(f"{layer}.bwd"), dout[:, ::-1, hidden:]
    )
    grads = {}
    for name, g in gf.items():
        grads[f"{layer}.fwd.{name}"] = g
    for name, g in gb.items():
        grads[f"{layer}.bwd.{name}"] = g
    return dxf + dxb[:, ::-1], grads


def _attention_forward(h2: np.ndarray, wq: np.ndarray, wk: np.ndarray):
    scale = 1.0 / np.sqrt(wq.shape[1])
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


def _forward(x: np.ndarray, model: RefinerModel):
    """Full forward pass on a batch (B, L); returns (refined, cache)."""
    mu = x.mean(axis=1, keepdims=True)
    u = (x - mu) / np.pi
    h1, cache1 = _bigru_forward(u[:, :, None], model, "l1")
    h2, cache2 = _bigru_forward(h1, model, "l2")
    att = _attention_forward(h2, model.params["att.W_q"], model.params["att.W_k"])
    wo = model.params["head.W_o"][:, 0]
    wo_h = wo[: 2 * model.hidden]
    wo_c = wo[2 * model.hidden :]
    head = h2 @ wo_h + (att["context"] @ wo_c)[:, None] + model.params["head.b_o"][0]
    out = x + np.pi * head
    return out, {"x": x, "h1": h1, "h2": h2, "cache1": cache1, "cache2": cache2, "att": att}


def _backward(dout: np.ndarray, cache, model: RefinerModel) -> dict:
    h2 = cache["h2"]
    att = cache["att"]
    wo = model.params["head.W_o"][:, 0]
    wo_h = wo[: 2 * model.hidden]
    wo_c = wo[2 * model.hidden :]

    dhead = np.pi * dout
    db_o = dhead.sum()
    dwo_h = np.einsum("blh,bl->h", h2, dhead)
    dh2 = dhead[:, :, None] * wo_h
    dhead_sum = dhead.sum(axis=1)
    dwo_c = att["context"].T @ dhead_sum
    dcontext = dhead_sum[:, None] * wo_c

    dwq, dwk = _attention_backward(
        h2, att, model.params["att.W_q"], model.params["att.W_k"], dh2, dcontext
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


def refine_batch(noisy: np.ndarray, model: RefinerModel) -> np.ndarray:
    """Refine a batch of windows, shape (B, L) -> (B, L)."""
    noisy = np.asarray(noisy, dtype=float)
    if noisy.ndim != 2 or noisy.shape[1] != model.window:
        raise ShapeError(
            f"batch must be (n, {model.window}), got {noisy.shape}"
        )
    out, _ = _forward(noisy, model)
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
    out, cache = _forward(noisy, model)
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
