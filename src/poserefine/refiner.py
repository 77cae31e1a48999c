"""Bidirectional GRU + attention denoiser for joint-angle windows.

The model maps a window of one joint's angle series, at most its training
length, to a refined window of the same length.  Input is centered on its
window mean and scaled by 1/pi; two stacked bidirectional GRU layers
encode the normalized series; a single attention read (query = projected
mean state) summarizes the window; and a per-timestep linear head
predicts a residual correction that is scaled back to radians and added
onto the raw input.  A model whose weights are all zero is exactly the identity.

`batch_gradients` keeps every step's gates for its hand-written reverse
mode, which the test suite checks against central finite differences in
float64.  It and `refine_batch` run the network in the dtype they are
given, float32 by default; the tests pass float64 for their references.
Inference keeps no backward cache: the gates and candidate state live in
one per-step buffer each, and the two layers take the same states and
output buffers, the second layer writing its output over its input once
its time loop has read it.  Inputs and outputs stay float64; the
network's correction is added onto the float64 input, so a float32 run
rounds only that.  The loss is taken from that float64 output, and the
gradients are returned as float64 for the float64 weights and Adam
moments.

The public functions take batch-major (B, L) windows, but the GRU layers
run time-major, and one time loop per layer advances both directions.
The states of a layer are one (L+1, 2, B, H) array, h[t, d] being
direction d's state after t steps, and each step's gates are one
(2, 2, B, H) block indexed [gate, direction]; the backward step's gate
gradients are likewise one reused (3, 2, B, H) block, copied once per
step into a direction-major ring (2, _PROJ_BLOCK, B, 3H) that holds the
last _PROJ_BLOCK steps, and every _PROJ_BLOCK steps the chunk's weight
and input gradients are GEMMs over the ring, added into the layer's
totals, so no whole-window (2, L, B, 3H) array is built.  Every numpy
call of a step therefore covers both directions and reads and writes
contiguous (B, H) blocks; the step loops are most of the refine and
training time, and most of a step's cost is per-call overhead and memory
traffic, not arithmetic.  So the forward builds its step views once per call, and it
halves the z and r weights and biases once, so that each step's sigmoid
is tanh, +1 and ×0.5, with the same bits as halving at every step.  The
input projections are computed a few steps at a time into one reused
buffer rather than for the whole window.  Attention and
the output head read the top layer's (L, B, 2H) output through a
batch-major view.  Their backward builds no (B, L, 2H) or (B, L, d_att)
temporary: the key gradient is rank one in time, and the top layer's
output gradient is one batched (B, L, 4) @ (B, 4, 2H) product.

Both entry points split their rows the same way (see _blocks), so a
256-row training batch is two blocks of 128 and a 3000-frame file's 1044
rows ten of 104 or 105; a block bounds the working memory of its forward,
or forward and backward, call.  A batch of several blocks is drained by one
thread per available CPU, the calling thread among them, while OpenBLAS
is held to one thread: numpy releases the GIL in the step's matmuls and
ufuncs, so the blocks' time loops overlap, and a BLAS that also spread
each small matmul over the cores would oversubscribe them.  The partition does not depend on the
number of CPUs, rows are independent, and the blocks' gradients are
summed in block order, so both functions give the same bits on any
number of threads.  A batch of one block, such as a short clip's 12
rows of its own length, is one direct call.

A block takes its large arrays by role from an arena: each layer's
states, gates, candidate state and output (without a cache, the first
layer's roles serve both layers), the projection block, which the
backward reuses for each chunk's copies, and the backward's gate
gradient ring, step buffers and input gradient.  The top layer's output
gradient takes the top layer's output role "l2.out", since the head and
attention are done with that output by then.  A role's arrays are views
of one buffer, and roles whose lifetimes do not overlap, such as the
two layers' gate gradient rings, share memory.  Each thread that calls
refine_batch or batch_gradients holds one _Arena per worker index of its
calls, so concurrent callers never share one, and a thread's arenas
last for its life: a long file's blocks and a training run's steps page
their memory in once and reuse it, where freed memory would be faulted
back in at every block or step.  A buffer grows to the
largest block its role has served on that thread, so a thread that has
refined keeps about 12.3 MB per worker for 105 float32 rows at H=64,
L=100, and one that has trained keeps one block's training working set
per worker, about 76 MB for 128 rows, until it ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModelError, ModelFormatError, ShapeError

_GATES = ("z", "r", "h")
_DIRECTIONS = ("fwd", "bwd")
_MAGIC = b"JARM"
_VERSION = 1
# time steps whose input projections are computed together, per direction
_PROJ_BLOCK = 8
# the most rows per block: a block bounds the working memory of its
# network call, and separate blocks can run on separate cores
_MAX_BLOCK_ROWS = 128
# the fewest rows split into blocks, so that a short batch, such as an
# epoch's last, runs on two cores
_SPLIT_ROWS = 64
# held while parallel blocks have BLAS pinned to one thread
_BLAS_LOCK = threading.Lock()


def parameter_shapes(hidden: int, d_att: int) -> dict:
    """Name -> shape table for every trainable tensor."""
    shapes: dict[str, tuple] = {}
    for layer, d_in in (("l1", 1), ("l2", 2 * hidden)):
        for direction in _DIRECTIONS:
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
            if not np.isfinite(arr).all():
                raise ShapeError(f"tensor {name!r} has non-finite values")
            # the network runs in float32, where a larger weight is infinite
            if np.abs(arr).max() > np.finfo(np.float32).max:
                raise ShapeError(f"tensor {name!r} has values beyond float32")
            self.params[name] = arr

    @classmethod
    def init_random(cls, hidden: int, d_att: int, window: int, seed: int):
        """Uniform fan-in init for weights, zero biases."""
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in parameter_shapes(hidden, d_att).items():
            if name.split(".")[-1].startswith("b"):
                params[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform(-bound, bound, size=shape)
        return cls(hidden=hidden, d_att=d_att, window=window, params=params)

    @classmethod
    def identity(cls, hidden: int, d_att: int, window: int):
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


class _Arena:
    """One worker's working memory: a flat byte buffer per role.

    take(role, shape, dtype) returns an uninitialised C-contiguous array
    over the start of the role's buffer, which grows when a call needs
    more, so a role's arrays alias each other.  The roles are each
    layer's states, gates, candidate state and output ("l1.h" .. "l2.out"),
    which a training block's cache holds (a forward without a cache takes
    only the "l1." roles), and the forward's projection block "proj",
    which the backward reuses for each chunk's copies once the forward is
    done.  The backward writes the top layer's output gradient into
    "l2.out", whose output the head and attention have read by then, and
    adds the ring of the last _PROJ_BLOCK steps' gate gradients "da" that
    the two layers take in turn, the step buffers "step", and the top
    layer's input gradient "dx".
    """

    def __init__(self):
        self._buffers = {}

    def take(self, role: str, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(role)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[role] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


class _ThreadArenas(threading.local):
    """Each thread's own arenas, by worker index, dropped when it ends."""

    def __init__(self):
        self.by_worker = {}


_THREAD_ARENAS = _ThreadArenas()


def _layer_weights(model: RefinerModel, layer: str, dtype):
    """Both directions' weights of one layer, stacked for the time loop.

    Returns W (2, 3, d_in, H) indexed [direction, gate], U_zr (2, 2, H, H)
    and the bias (3, 2, 1, H) indexed [gate, direction], and U_h (2, H, H);
    gates in z, r, h order, all in dtype.
    """
    cells = [model.cell(f"{layer}.{d}") for d in _DIRECTIONS]
    w = np.array([[c[f"W_{g}"] for g in _GATES] for c in cells], dtype=dtype)
    u_zr = np.array([[c[f"U_{g}"] for c in cells] for g in "zr"], dtype=dtype)
    u_h = np.array([c["U_h"] for c in cells], dtype=dtype)
    bias = np.array([[c[f"b_{g}"] for c in cells] for g in _GATES], dtype=dtype)
    return w, u_zr, u_h, bias[:, :, None, :]


def _bigru_forward(
    x: np.ndarray, model: RefinerModel, layer: str, keep_cache: bool, mem
):
    """Both directions of one layer over x (L, B, d_in); out is (L, B, 2H).

    One time loop advances both directions: h is (L+1, 2, B, H), where
    h[t, 0] is the forward state after t steps (times 0..t-1) and h[t, 1]
    the backward state after t steps (times L-1 down to L-t); index 0 holds
    the zero initial states.  Each step computes the recurrent z/r products
    of both directions with one matmul into a (2, 2, B, H) buffer indexed
    [gate, direction], so z and r are each one contiguous (2, B, H) block
    and each element-wise call covers both directions.

    The input projections x @ W + b are computed _PROJ_BLOCK steps at a
    time into one reused (block, 3, 2, B, H) buffer, both directions in step
    order, and the bias is added in place, so each step reads one
    contiguous (3, 2, B, H) slice and no (L, B, 3H) projection is built.
    The output is written once from h: the forward half, then the backward
    half reversed.

    sigmoid(a) = (tanh(a / 2) + 1) / 2, and halving is exact in binary
    floating point, so the z and r rows of W, U_zr and the bias are halved
    once here and the step takes tanh of the halved pre-activation: the
    same bits as halving it at every step.  The views each step reads and
    writes are built once per call, and the step's numpy calls take their
    output positionally, so the time loop allocates nothing.

    The step computes in x.dtype.  With keep_cache the cache holds x, h,
    the gates zr (L, 2, 2, B, H) and the candidate state hc (L, 2, B, H);
    without it the gates and candidate state are one step's buffer each,
    reused at every step, and the cache is None.  The states, gates,
    candidate state, projections and output are taken from the arena mem.
    Without a cache both layers take the first layer's roles, the output
    too: the second layer reads its input, the first layer's output, only
    in the time loop, and writes its own output over it after the loop.
    """
    length, b, d_in = x.shape
    dtype = x.dtype
    hidden = model.hidden
    w, u_zr, u_h, bias = _layer_weights(model, layer, dtype)
    # the z and r pre-activations, halved for the sigmoid's tanh form, which
    # cannot overflow
    w[:, :2] *= 0.5
    u_zr *= 0.5
    bias[:2] *= 0.5
    # a (rows, 1) @ (1, H) matmul takes numpy's loop without BLAS; the
    # broadcast product gives the same values several times faster
    project = np.multiply if d_in == 1 else np.matmul
    matmul, add, multiply, subtract, tanh = (
        np.matmul, np.add, np.multiply, np.subtract, np.tanh
    )

    owner = layer if keep_cache else "l1"
    h = mem.take(f"{owner}.h", (length + 1, 2, b, hidden), dtype)
    h[0] = 0.0
    steps = length if keep_cache else 1
    zr_all = mem.take(f"{owner}.zr", (steps, 2, 2, b, hidden), dtype)
    hc_all = mem.take(f"{owner}.hc", (steps, 2, b, hidden), dtype)
    rh = np.empty((2, b, hidden), dtype)
    block = min(_PROJ_BLOCK, length)
    proj = mem.take("proj", (block, 3, 2, b, hidden), dtype)
    states = list(h)
    # step t's gates, z, r and candidate state; without a cache every step
    # takes the one slot
    slots = [(zr, zr[0], zr[1], hc) for zr, hc in zip(zr_all, hc_all)]
    slots *= length // steps
    # a projection row's z/r and candidate parts
    inputs = [(p[:2], p[2]) for p in proj]
    for t in range(length):
        k = t % block
        if k == 0:
            n = min(block, length - t)
            project(x[t : t + n, None], w[0], out=proj[:n, :, 0])
            # the backward direction's block, in its step order
            back = x[length - t - n : length - t][::-1]
            project(back[:, None], w[1], out=proj[:n, :, 1])
            proj[:n] += bias
        xzr, xh = inputs[k]
        hp, hn = states[t], states[t + 1]
        zr, z, r, hc = slots[t]
        matmul(hp, u_zr, zr)
        add(zr, xzr, zr)
        tanh(zr, zr)
        add(zr, 1.0, zr)
        multiply(zr, 0.5, zr)
        multiply(r, hp, rh)
        matmul(rh, u_h, hc)
        add(hc, xh, hc)
        tanh(hc, hc)
        # h_new = hp + z * (hc - hp)
        subtract(hc, hp, hn)
        multiply(hn, z, hn)
        add(hn, hp, hn)
    out = mem.take(f"{owner}.out", (length, b, 2 * hidden), dtype)
    out[:, :, :hidden] = h[1:, 0]
    out[:, :, hidden:] = h[length:0:-1, 1]
    cache = {"x": x, "h": h, "zr": zr_all, "hc": hc_all} if keep_cache else None
    return out, cache


def _bigru_backward(
    cache, model: RefinerModel, layer: str, dout: np.ndarray, need_dx: bool, mem
):
    """BPTT through both directions of one layer; returns (dx, grads).

    dout is (L, B, 2H) in the cache's dtype, and the whole backward
    computes in that dtype.  The step loop runs both directions back from
    their last step, reading the forward cache's (L+1, 2, B, H) states and
    contiguous gate blocks.  Each step's gate pre-activation gradients are
    computed in one reused, contiguous (3, 2, B, H) buffer indexed [gate,
    direction], then copied into slot t % _PROJ_BLOCK of the
    direction-major ring da (2, _PROJ_BLOCK, B, 3H), z, r and h side by
    side; the step's recurrent product reads its z and r columns from
    there.  Chunks of steps start at multiples of _PROJ_BLOCK, so the
    first chunk the loop meets, the window's last steps, may be partial.
    When the loop has done a chunk's first step, each direction's input
    weight, recurrent weight and bias gradients over the chunk's rows of
    da are one GEMM or one sum each, added into the layer's totals, and
    its input-gradient rows are one GEMM, added into dx, which starts at
    zero.  dx is None unless need_dx.

    The step buffers, da and dx are taken from the arena mem.  A chunk's
    copies reuse the forward's projection buffer "proj", which is free by
    now: direction 1's input rows in its step order, one direction's
    previous states, overwritten by r * h_prev, and its input-gradient
    rows.
    """
    x = cache["x"]
    h = cache["h"]  # (L+1, 2, B, H) with the zero initial states at index 0
    zr_all, hc_all = cache["zr"], cache["hc"]
    length, _, b, hidden = hc_all.shape
    d_in = x.shape[2]
    dtype = h.dtype
    w, u_zr, u_h, _ = _layer_weights(model, layer, dtype)
    # per direction, [U_z U_r]^T (2H, H), U_h^T (H, H), and the rows of
    # W_z^T, W_r^T and W_h^T stacked (3H, d_in)
    u_zr_t = np.ascontiguousarray(u_zr.transpose(1, 0, 3, 2).reshape(2, 2 * hidden, hidden))
    u_h_t = np.ascontiguousarray(u_h.transpose(0, 2, 1))
    w_t = w.transpose(0, 1, 3, 2).reshape(2, 3 * hidden, d_in)

    block = min(_PROJ_BLOCK, length)
    da = mem.take("da", (2, block, b, 3 * hidden), dtype)
    # da's rows of one step as (2, B, 3, H): the step's gates are copied in
    da_gates = da.reshape(2, block, b, 3, hidden)
    rows = block * b
    chunk = mem.take("proj", (rows * (2 * d_in + hidden),), dtype)
    x_rev = chunk[: rows * d_in].reshape(block, b, d_in)
    states = chunk[rows * d_in : rows * (d_in + hidden)].reshape(block, b, hidden)
    dx_rows = chunk[rows * (d_in + hidden) :].reshape(block, b, d_in)
    dw = np.zeros((2, d_in, 3 * hidden), dtype)
    du_zr = np.zeros((2, hidden, 2 * hidden), dtype)
    du_h = np.zeros((2, hidden, hidden), dtype)
    db = np.zeros((2, 3 * hidden), dtype)
    dx = None
    if need_dx:
        dx = mem.take("dx", (length, b, d_in), dtype)
        dx[...] = 0.0

    step = mem.take("step", (7, 2, b, hidden), dtype)
    # one step's gate gradients, indexed [gate, direction]
    g = step[:3]
    da_z, da_r, da_h = g
    dh, drh, omz, tmp = step[3:]
    dh[...] = 0.0  # gradient of the states, carried backwards
    for t in range(length - 1, -1, -1):
        z = zr_all[t, 0]
        r = zr_all[t, 1]
        hc = hc_all[t]
        hp = h[t]
        k = t % block
        # step t of the backward direction read time L-1-t
        dh[0] += dout[t, :, :hidden]
        dh[1] += dout[length - 1 - t, :, hidden:]
        np.subtract(1.0, z, out=omz)
        # dz = dh*(hc-hp); da_z = dz*z*(1-z)
        np.subtract(hc, hp, out=da_z)
        da_z *= dh
        da_z *= z
        da_z *= omz
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
        da_gates[:, k] = g.transpose(1, 2, 0, 3)
        # dh becomes the gradient of the previous states
        dh *= omz
        drh *= r
        dh += drh
        np.matmul(da[:, k, :, : 2 * hidden], u_zr_t, out=tmp)
        dh += tmp
        if k:
            continue
        # steps t .. t+n-1 are done: their GEMMs, in each direction's step order
        n = min(block, length - t)
        m = n * b
        for d in range(2):
            da_d = da[d, :n].reshape(m, 3 * hidden)
            if d == 0:
                x_d = x[t : t + n]
            else:
                x_d = x_rev[:n]
                x_d[...] = x[length - t - n : length - t][::-1]
            h_prev = states[:n].reshape(m, hidden)
            states[:n] = h[t : t + n, d]
            dw[d] += x_d.reshape(m, d_in).T @ da_d
            du_zr[d] += h_prev.T @ da_d[:, : 2 * hidden]
            db[d] += da_d.sum(axis=0)
            # r * h_prev, over h_prev
            np.multiply(zr_all[t : t + n, 1, d], states[:n], out=states[:n])
            du_h[d] += h_prev.T @ da_d[:, 2 * hidden :]
            if need_dx:
                np.matmul(da_d, w_t[d], out=dx_rows[:n].reshape(m, d_in))
                if d == 0:
                    dx[t : t + n] += dx_rows[:n]
                else:
                    dx[length - t - n : length - t] += dx_rows[:n][::-1]

    grads = {}
    for d, direction in enumerate(_DIRECTIONS):
        prefix = f"{layer}.{direction}"
        for k, g in enumerate(_GATES):
            cols = slice(k * hidden, (k + 1) * hidden)
            grads[f"{prefix}.W_{g}"] = dw[d, :, cols]
            grads[f"{prefix}.b_{g}"] = db[d, cols]
        grads[f"{prefix}.U_z"] = du_zr[d, :, :hidden]
        grads[f"{prefix}.U_r"] = du_zr[d, :, hidden:]
        grads[f"{prefix}.U_h"] = du_h[d]
    return dx, grads


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
    return {"hbar": hbar, "q": q, "alpha": alpha, "context": context, "scale": scale}


def _attention_backward(h2, att, wq, wk, dcontext):
    """Attention's weight gradients and its terms of the h2 gradient.

    h2 is the time-major (L, B, 2H) top layer output.  The keys enter the
    scores only through dscores[b, l] * q[b], so with
    s[b] = sum_l dscores[b, l] * h2[l, b] the query gradient is s @ W_k and
    the key weight gradient s^T @ q; no (B, L, d_att) key gradient is
    built.  Returns (dwq, dwk, dscores, q @ W_k^T, dhbar): h2[l, b]'s
    gradient gets alpha[b, l] * dcontext[b] + dscores[b, l] * (q @ W_k^T)[b]
    + dhbar[b] / L, which _backward adds in one product.
    """
    alpha = att["alpha"]
    q = att["q"]
    dalpha = np.einsum("bh,lbh->bl", dcontext, h2)
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dscores = dscores * att["scale"]
    s = np.einsum("bl,lbh->bh", dscores, h2)
    dq = s @ wk
    dwk = s.T @ q
    dwq = att["hbar"].T @ dq
    dhbar = dq @ wq.T
    return dwq, dwk, dscores, q @ wk.T, dhbar


def _forward(x: np.ndarray, model: RefinerModel, dtype, keep_cache: bool, mem):
    """Full forward pass on a float64 batch (B, L); returns (refined, cache).

    The network computes in dtype: the normalized input is cast once and
    transposed to (L, B, 1) for the GRU layers, and attention and the head
    read h2 (L, B, 2H) through a batch-major view.  The residual is added
    onto the float64 x, so the output is float64 and an all-zero model
    returns x exactly.  Without keep_cache the GRU caches are None.  The
    GRU layers take their arrays from the arena mem; the refined output is
    a new array.
    """
    mu = x.mean(axis=1, keepdims=True)
    u = (x - mu) / np.pi
    u_tm = np.ascontiguousarray(u.T, dtype=dtype)[:, :, None]
    h1, cache1 = _bigru_forward(u_tm, model, "l1", keep_cache, mem)
    h2, cache2 = _bigru_forward(h1, model, "l2", keep_cache, mem)
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


def _backward(dout: np.ndarray, cache, model: RefinerModel, mem) -> dict:
    """Parameter gradients from dout (B, L), computed in the cache's dtype.

    dout and the weights are cast to that dtype once here: a float64
    operand in any product below would promote the rest of the backward
    to float64.  The gradients come back in that dtype too, as new arrays.
    The top layer's output gradient and both layers' backward take their
    arrays from the arena mem.  It may be the arena the cache came from:
    the output gradient dh2 then takes the top layer's output "l2.out"
    once the head and attention are done with it, and no other array of
    the cache has a backward role.
    """
    h2 = cache["h2"]  # (L, B, 2H)
    att = cache["att"]
    dtype = h2.dtype
    p = {
        name: model.params[name].astype(dtype, copy=False)
        for name in ("att.W_q", "att.W_k", "head.W_o")
    }
    wo = p["head.W_o"][:, 0]
    wo_h = wo[: 2 * model.hidden]
    wo_c = wo[2 * model.hidden :]

    dhead = np.pi * dout.T.astype(dtype)  # (L, B)
    db_o = dhead.sum()
    dwo_h = dhead.reshape(-1) @ h2.reshape(-1, 2 * model.hidden)
    dhead_sum = dhead.sum(axis=0)
    dwo_c = att["context"].T @ dhead_sum
    dcontext = dhead_sum[:, None] * wo_c
    dwq, dwk, dscores, qk, dhbar = _attention_backward(
        h2, att, p["att.W_q"], p["att.W_k"], dcontext
    )

    # dh2[l, b] = sum_j coef[b, l, j] * rows[b, j]: the head's, the
    # context's, the scores' and the mean's terms in one batched product
    length, b, _ = h2.shape
    coef = np.empty((b, length, 4), dtype)
    coef[:, :, 0] = dhead.T
    coef[:, :, 1] = att["alpha"]
    coef[:, :, 2] = dscores
    coef[:, :, 3] = 1.0 / length
    rows = np.empty((b, 4, 2 * model.hidden), dtype)
    rows[:, 0] = wo_h
    rows[:, 1] = dcontext
    rows[:, 2] = qk
    rows[:, 3] = dhbar
    # h2 is dead now that coef and rows are built: dh2 takes its role
    dh2 = mem.take("l2.out", (b, length, 2 * model.hidden), dtype)
    np.matmul(coef, rows, out=dh2)
    dh1, grads2 = _bigru_backward(
        cache["cache2"], model, "l2", dh2.transpose(1, 0, 2), need_dx=True, mem=mem
    )
    # the first layer's input gradient would be the normalized input's
    _, grads1 = _bigru_backward(
        cache["cache1"], model, "l1", dh1, need_dx=False, mem=mem
    )

    grads = {}
    grads.update(grads1)
    grads.update(grads2)
    grads["att.W_q"] = dwq
    grads["att.W_k"] = dwk
    grads["head.W_o"] = np.concatenate([dwo_h, dwo_c])[:, None]
    grads["head.b_o"] = np.array([db_o])
    return grads


@functools.cache
def _blas_thread_control():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or
    None if it is not found.  Looked up once, on the first parallel call."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libdir))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libdir, name))
        # numpy 2 wheels, numpy 1 wheels, then an unsuffixed build
        for symbol in (
            "scipy_openblas_{}_num_threads64_",
            "openblas_{}_num_threads64_",
            "openblas_{}_num_threads",
        ):
            get = getattr(lib, symbol.format("get"), None)
            put = getattr(lib, symbol.format("set"), None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


def _cpu_count() -> int:
    """CPUs this process may run on; sched_getaffinity is not on every OS."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS to one thread; yields whether it could be held.

    The lock spans the save, the parallel section and the restore, so
    concurrent callers take turns and none restores another's setting.
    """
    control = _blas_thread_control()
    if control is None:
        yield False
        return
    get, put = control
    with _BLAS_LOCK:
        before = get()
        if before == 1:
            yield True
            return
        put(1)
        try:
            yield True
        finally:
            put(before)


def _blocks(rows: int) -> list:
    """Row slices of the blocks of a batch: one block below _SPLIT_ROWS
    rows, otherwise the fewest even number of balanced blocks of at most
    _MAX_BLOCK_ROWS rows, whatever the number of CPUs.  An even count
    gives two workers equal shares, and its blocks are no larger than the
    fewest blocks would be, so a worker's arena grows no more."""
    count = 1 if rows < _SPLIT_ROWS else 2 * -(-rows // (2 * _MAX_BLOCK_ROWS))
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def _run_blocks(rows: int, job) -> list:
    """[job(part, mem) for part in _blocks(rows)], the jobs run as the
    module docstring describes, or all on the calling thread if BLAS
    cannot be held to one thread; mem is the calling thread's arena of
    the worker that runs the job, worker 0 being the calling thread, so no
    two jobs that overlap share an arena.  A single job runs directly, with
    no thread and no BLAS lookup.  Jobs on a worker thread may call only
    private functions, so a public function a caller has wrapped runs on
    the calling thread alone, under the calling thread's numpy errstate.
    """
    parts = _blocks(rows)
    arenas = _THREAD_ARENAS.by_worker
    if len(parts) == 1:
        return [job(parts[0], arenas.setdefault(0, _Arena()))]
    results = [None] * len(parts)
    todo = iter(range(len(parts)))
    claim = threading.Lock()

    @np.errstate(**np.geterr())
    def drain(mem):
        while True:
            with claim:
                i = next(todo, None)
            if i is None:
                return
            results[i] = job(parts[i], mem)

    with _one_blas_thread() as held:
        workers = min(_cpu_count(), len(parts)) if held else 1
        mems = [arenas.setdefault(w, _Arena()) for w in range(workers)]
        if workers == 1:
            drain(mems[0])
            return results
        # loaded here: `import poserefine` does not need it
        from concurrent.futures import ThreadPoolExecutor

        # the calling thread drains jobs too, so workers - 1 are started
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(drain, mem) for mem in mems[1:]]
            drain(mems[0])
            for helper in helpers:
                helper.result()
    return results


def refine_batch(noisy: np.ndarray, model: RefinerModel, dtype=np.float32) -> np.ndarray:
    """Refine a batch of windows, (B, L) -> float64 (B, L), 1 <= L <= model.window.

    The network computes in dtype and keeps no backward cache, one forward
    call per block of rows.
    """
    noisy = np.asarray(noisy, dtype=float)
    if noisy.ndim != 2 or not 1 <= noisy.shape[1] <= model.window:
        raise ShapeError(
            f"batch must be (n, L) with 1 <= L <= {model.window}, got {noisy.shape}"
        )
    out = np.empty_like(noisy)

    def block(part, mem):
        out[part] = _forward(noisy[part], model, dtype, keep_cache=False, mem=mem)[0]

    _run_blocks(len(noisy), block)
    return out


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over every element."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeError("prediction and truth shapes differ")
    diff = pred - truth
    return float(np.mean(diff * diff))


def batch_gradients(
    noisy: np.ndarray,
    truth: np.ndarray,
    model: RefinerModel,
    dtype=np.float32,
):
    """Loss and float64 parameter gradients of the batch MSE; (B, L) inputs.

    The forward and backward compute in dtype, one call of each per block
    of rows, and the blocks run as the module docstring describes.  The
    loss is the mean of the blocks' float64 output errors, and the blocks'
    gradients are cast to float64 and summed in block order, so the result
    does not depend on the number of threads.
    """
    noisy = np.asarray(noisy, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if noisy.shape != truth.shape or noisy.ndim != 2 or noisy.size == 0:
        raise ShapeError("noisy and truth must both be (n, window) with n, window >= 1")
    diff = np.empty_like(noisy)
    scale = 2.0 / noisy.size

    def block(part, mem):
        out, cache = _forward(noisy[part], model, dtype, keep_cache=True, mem=mem)
        np.subtract(out, truth[part], out=diff[part])
        return _backward(scale * diff[part], cache, model, mem=mem)

    first, *rest = _run_blocks(len(noisy), block)
    grads = {name: g.astype(np.float64) for name, g in first.items()}
    for block_grads in rest:
        for name, g in block_grads.items():
            grads[name] += g
    return float(np.mean(diff * diff)), grads


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
    """Fields read in place from a model file's bytes, at a moving offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, count: int) -> int:
        """The offset of the next count bytes, which are then consumed."""
        start = self.pos
        if start + count > len(self.data):
            raise CorruptModelError("model file is truncated")
        self.pos = start + count
        return start

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def floats(self, shape: tuple) -> np.ndarray:
        """A new float64 array of the next little-endian doubles."""
        count = math.prod(shape)
        start = self._advance(8 * count)
        raw = np.frombuffer(self.data, dtype="<f8", count=count, offset=start)
        try:
            return raw.astype(np.float64).reshape(shape)
        except ValueError:  # an empty shape numpy cannot make, such as (0, 2, 2**31, 2**31)
            raise CorruptModelError(f"tensor shape {shape} is not an array numpy can hold")


def load_model(path) -> RefinerModel:
    """Read a model file, checking its format; RefinerModel checks the
    tensors it holds, and its refusal is raised as CorruptModelError."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    (magic,) = reader.unpack("4s")
    if magic != _MAGIC:
        raise ModelFormatError("bad magic; not a refiner model file")
    version, hidden, d_att, window = reader.unpack("<IIII")
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    (count,) = reader.unpack("<I")
    params = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        (name,) = reader.unpack(f"{name_len}s")
        # an undecodable name becomes U+FFFD, which no tensor has
        name = name.decode("utf-8", errors="replace")
        (rank,) = reader.unpack("<I")
        shape = reader.unpack(f"<{rank}I")
        if name in params:
            raise CorruptModelError(f"tensor {name!r} is listed twice")
        params[name] = reader.floats(shape)
    if reader.pos != len(reader.data):
        raise CorruptModelError("trailing bytes after the tensor table")
    try:
        return RefinerModel(hidden=hidden, d_att=d_att, window=window, params=params)
    except ShapeError as exc:
        raise CorruptModelError(str(exc))
