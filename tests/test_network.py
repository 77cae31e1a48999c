"""Refiner network: forward oracles, gradients, serialization."""

import json
import math
import os
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from poserefine import (
    CorruptModelError,
    EpochStats,
    ModelFormatError,
    RefinerModel,
    ShapeError,
    TrainConfig,
    TrainingDivergedError,
    batch_gradients,
    load_model,
    mse_loss,
    parameter_shapes,
    refine_batch,
    refine_keypoint_file,
    save_model,
    save_train_log,
    train_on_arrays,
    write_keypoints,
)
from poserefine import refiner, training, windows
from poserefine.cli import main
from poserefine.refiner import (
    _MAX_BLOCK_ROWS,
    _PROJ_BLOCK,
    _SPLIT_ROWS,
    _Arena,
    _attention_forward,
    _backward,
    _bigru_backward,
    _bigru_forward,
    _blocks,
    _forward,
)

from conftest import make_rng, smooth_sequence


def gru_cell_forward(x: np.ndarray, h_prev: np.ndarray, cell: dict) -> np.ndarray:
    """Oracle: one plain GRU step with update/reset gates, then the blend."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = sigmoid(x @ cell["W_z"] + h_prev @ cell["U_z"] + cell["b_z"])
    r = sigmoid(x @ cell["W_r"] + h_prev @ cell["U_r"] + cell["b_r"])
    h_cand = np.tanh(x @ cell["W_h"] + (r * h_prev) @ cell["U_h"] + cell["b_h"])
    return (1.0 - z) * h_prev + z * h_cand


def small_model(seed=0, hidden=4, d_att=3, window=12):
    return RefinerModel.init_random(hidden=hidden, d_att=d_att, window=window, seed=seed)


def test_parameter_shapes_inventory():
    shapes = parameter_shapes(hidden=8, d_att=4)
    assert len(shapes) == 2 * 2 * 9 + 4
    assert shapes["l1.fwd.W_z"] == (1, 8)
    assert shapes["l2.bwd.W_h"] == (16, 8)
    assert shapes["l1.fwd.U_r"] == (8, 8)
    assert shapes["att.W_q"] == (16, 4)
    assert shapes["head.W_o"] == (32, 1)
    assert shapes["head.b_o"] == (1,)
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert total == 1841


def test_model_validation():
    shapes = parameter_shapes(4, 3)
    params = {k: np.zeros(v) for k, v in shapes.items()}
    del params["head.b_o"]
    with pytest.raises(ShapeError, match="head.b_o"):
        RefinerModel(hidden=4, d_att=3, window=12, params=params)
    params = {k: np.zeros(v) for k, v in shapes.items()}
    params["att.W_q"] = np.zeros((3, 3))
    with pytest.raises(ShapeError, match="att.W_q"):
        RefinerModel(hidden=4, d_att=3, window=12, params=params)
    with pytest.raises(ShapeError):
        RefinerModel(hidden=0, d_att=3, window=12, params={})
    params = {k: np.zeros(v) for k, v in shapes.items()}
    params["head.W_o"][5, 0] = -1e39
    with pytest.raises(ShapeError, match="'head.W_o' has values beyond float32"):
        RefinerModel(hidden=4, d_att=3, window=12, params=params)


def test_identity_model_is_exact_identity():
    rng = make_rng(51)
    model = RefinerModel.identity(hidden=6, d_att=4, window=15)
    x = rng.uniform(-3.0, 3.0, size=(4, 15))
    assert np.array_equal(refine_batch(x, model), x)
    assert np.array_equal(refine_batch(x[0][None], model)[0], x[0])


def test_gru_cell_scalar_hand_oracle():
    # hidden size 1: every quantity is a scalar computed with plain math
    cell = {
        "W_z": np.array([[0.5]]),
        "U_z": np.array([[-0.3]]),
        "b_z": np.array([0.1]),
        "W_r": np.array([[-0.2]]),
        "U_r": np.array([[0.4]]),
        "b_r": np.array([0.0]),
        "W_h": np.array([[0.7]]),
        "U_h": np.array([[0.6]]),
        "b_h": np.array([-0.1]),
    }
    x, h_prev = 0.3, 0.25

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sigmoid(0.5 * x - 0.3 * h_prev + 0.1)
    r = sigmoid(-0.2 * x + 0.4 * h_prev)
    h_cand = math.tanh(0.7 * x + 0.6 * (r * h_prev) - 0.1)
    want = (1.0 - z) * h_prev + z * h_cand

    got = gru_cell_forward(np.array([[x]]), np.array([[h_prev]]), cell)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(want, abs=1e-14)


@pytest.mark.bigru
def test_bigru_layer_matches_stepwise_oracle():
    rng = make_rng(52)
    model = small_model(seed=3)

    def run_direction(seq, cell):
        h = np.zeros((seq.shape[0], model.hidden))
        states = []
        for t in range(seq.shape[1]):
            h = gru_cell_forward(seq[:, t], h, cell)
            states.append(h)
        return np.stack(states, axis=1)

    def oracle(seq, layer):
        fwd = run_direction(seq, model.cell(f"{layer}.fwd"))
        bwd = run_direction(seq[:, ::-1], model.cell(f"{layer}.bwd"))[:, ::-1]
        return np.concatenate([fwd, bwd], axis=2)

    # the window of 12 is not a multiple of the projection block; the other
    # lengths are 2, one below the block, and a last block of one step
    assert 12 % _PROJ_BLOCK != 0
    lengths = (12, 2, _PROJ_BLOCK - 1, 2 * _PROJ_BLOCK + 1)
    for length, batch in [(12, 2)] + [(n, b) for n in lengths for b in (1, 3)]:
        x = rng.normal(size=(batch, length, 1))
        # the layer runs time-major: (L, B, d_in) in, (L, B, 2H) out
        got = _bigru_forward(
            x.transpose(1, 0, 2), model, "l1", keep_cache=False, mem=_Arena()
        )[0].transpose(1, 0, 2)
        assert got.shape == (batch, length, 2 * model.hidden)
        assert np.max(np.abs(got - oracle(x, "l1"))) <= 1e-12

        # second layer consumes the first layer's features
        got2 = _bigru_forward(
            got.transpose(1, 0, 2), model, "l2", keep_cache=False, mem=_Arena()
        )[0].transpose(1, 0, 2)
        assert np.max(np.abs(got2 - oracle(got, "l2"))) <= 1e-12


@pytest.mark.bigru
def test_attention_matches_softmax_oracle():
    rng = make_rng(53)
    model = small_model(seed=4)
    h2 = rng.normal(size=(3, 12, 2 * model.hidden))
    wq = model.params["att.W_q"]
    wk = model.params["att.W_k"]
    att = _attention_forward(h2, wq, wk)
    q = h2.mean(axis=1) @ wq
    scores = (h2 @ wk) @ q[..., None]
    scores = scores[..., 0] / math.sqrt(model.d_att)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    context = (alpha[:, :, None] * h2).sum(axis=1)

    assert np.all(alpha >= 0)
    assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(att["alpha"] - alpha)) <= 1e-12
    assert np.max(np.abs(att["context"] - context)) <= 1e-12


@pytest.mark.bigru
def test_full_forward_matches_public_composition():
    rng = make_rng(54)
    model = small_model(seed=5)
    x = rng.uniform(-2.0, 2.0, size=(3, 12))
    mu = x.mean(axis=1, keepdims=True)
    u = (x - mu) / np.pi
    h1 = _bigru_forward(u.T[:, :, None], model, "l1", keep_cache=False, mem=_Arena())[0]
    h2 = _bigru_forward(h1, model, "l2", keep_cache=False, mem=_Arena())[0]
    h2 = h2.transpose(1, 0, 2)
    att = _attention_forward(h2, model.params["att.W_q"], model.params["att.W_k"])
    context = att["context"]
    feats = np.concatenate([h2, np.broadcast_to(context[:, None, :], h2.shape)], axis=2)
    head = feats @ model.params["head.W_o"][:, 0] + model.params["head.b_o"][0]
    want = x + np.pi * head
    assert np.max(np.abs(refine_batch(x, model, dtype=np.float64) - want)) <= 1e-12


def test_refine_batch_rows_are_independent():
    # B != L, so a swapped time/batch axis would mix windows or fail to run
    rng = make_rng(62)
    model = small_model(seed=12)
    x = rng.uniform(-2.0, 2.0, size=(5, 12))
    got = refine_batch(x, model, dtype=np.float64)
    for i in range(x.shape[0]):
        row = refine_batch(x[i : i + 1], model, dtype=np.float64)[0]
        assert np.max(np.abs(got[i] - row)) <= 1e-12


def blockwise(x, model, dtype) -> np.ndarray:
    """Oracle: each block of rows through its own forward call, in turn."""
    return np.concatenate(
        [
            _forward(x[part], model, dtype, keep_cache=False, mem=_Arena())[0]
            for part in _blocks(len(x))
        ]
    )


def record_forward_calls(monkeypatch) -> list:
    """Patch refiner._forward to log (thread id, BLAS threads or None,
    active thread count, rows) for each call, then run it."""
    calls = []
    control = refiner._blas_thread_control()
    forward = refiner._forward

    def logged(x, *args, **kwargs):
        blas = control[0]() if control is not None else None
        calls.append((threading.get_ident(), blas, threading.active_count(), len(x)))
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(refiner, "_forward", logged)
    return calls


@pytest.mark.bigru
@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_refine_batch_blocks_match_block_by_block_calls(monkeypatch, dtype, workers):
    # 1404 rows, twelve blocks of 117, on 1, 2 or 8 worker threads (more
    # than this machine may have cores), switching threads often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    model = small_model(seed=15)
    x = make_rng(73).uniform(-2.0, 2.0, size=(1404, 12))
    want = blockwise(x, model, dtype)
    calls = record_forward_calls(monkeypatch)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = refine_batch(x, model, dtype=dtype)
    finally:
        sys.setswitchinterval(interval)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    # the blocks ran on at most `workers` threads, the calling one
    # included, with BLAS held to one thread
    threads = {ident for ident, _, _, _ in calls}
    assert [rows for _, _, _, rows in calls] == 12 * [117]
    assert len(threads) <= workers
    if workers == 1:
        assert threads == {threading.get_ident()}
    assert all(count <= before + workers - 1 for _, _, count, _ in calls)
    assert all(blas in (None, 1) for _, blas, _, _ in calls)


@pytest.mark.bigru
def test_refine_batch_counts_cpus_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    model = small_model(seed=18)
    x = make_rng(77).uniform(-2.0, 2.0, size=(225, 12))
    want = blockwise(x, model, np.float64)
    assert np.array_equal(refine_batch(x, model, dtype=np.float64), want)


@pytest.mark.bigru
def test_concurrent_callers_get_the_serial_results_and_blas_is_restored():
    control = refiner._blas_thread_control()
    if control is None:
        pytest.skip("the OpenBLAS thread setting of numpy is not found")
    get, put = control
    model = small_model(seed=16)
    rng = make_rng(75)
    batches = [rng.uniform(-2.0, 2.0, size=(227, 12)) for _ in range(2)]
    want = [refine_batch(x, model, dtype=np.float32) for x in batches]
    got = [None, None]
    start = threading.Barrier(2)

    def call(i):
        start.wait()
        got[i] = refine_batch(batches[i], model, dtype=np.float32)

    before = get()
    # two BLAS threads, so that each caller has a setting to save and restore
    put(2)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert get() == 2
    finally:
        put(before)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.bigru
def test_one_block_starts_no_thread_and_leaves_blas_alone(monkeypatch):
    def refuse():
        raise AssertionError("a one-block call looked up BLAS")

    calls = record_forward_calls(monkeypatch)
    monkeypatch.setattr(refiner, "_blas_thread_control", refuse)
    model = small_model(seed=17)
    x = make_rng(76).uniform(-2.0, 2.0, size=(_SPLIT_ROWS - 1, 12))
    before = threading.active_count()
    refine_batch(x, model, dtype=np.float32)
    assert [(ident, count) for ident, _, count, _ in calls] == [
        (threading.get_ident(), before)
    ]
    assert threading.active_count() == before


@pytest.mark.bigru
def test_both_entry_points_split_154_rows_into_two_blocks_of_77(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = small_model(seed=25)
    rng = make_rng(91)
    noisy = rng.uniform(-2.0, 2.0, size=(154, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    calls = record_forward_calls(monkeypatch)
    refine_batch(noisy, model)
    assert [rows for _, _, _, rows in calls] == [77, 77]
    calls.clear()
    batch_gradients(noisy, truth, model)
    assert [rows for _, _, _, rows in calls] == [77, 77]


@pytest.mark.bigru
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bigru_layer_without_cache_matches_the_cached_run(dtype):
    # inference reuses one gate buffer per step; the outputs must not change
    rng = make_rng(70)
    model = small_model(seed=13, hidden=5)
    x = rng.normal(size=(12, 6, 2 * model.hidden)).astype(dtype)  # (L, B, d_in)
    want, cache = _bigru_forward(x, model, "l2", keep_cache=True, mem=_Arena())
    got, no_cache = _bigru_forward(x, model, "l2", keep_cache=False, mem=_Arena())
    assert no_cache is None
    assert got.dtype == dtype
    assert np.array_equal(got, want)
    # states (L+1, 2, B, H); gates (L, gate, direction, B, H); candidate (L, 2, B, H)
    assert cache["h"].shape == (13, 2, 6, model.hidden)
    assert cache["zr"].shape == (12, 2, 2, 6, model.hidden)
    assert cache["hc"].shape == (12, 2, 6, model.hidden)
    for t in range(12):
        for direction in range(2):
            assert cache["h"][t, direction].flags.c_contiguous
            assert cache["hc"][t, direction].flags.c_contiguous
            for gate in range(2):
                assert cache["zr"][t, gate, direction].flags.c_contiguous
    # the output's backward half is the backward states in reverse step order
    assert np.array_equal(want[:, :, : model.hidden], cache["h"][1:, 0])
    assert np.array_equal(want[:, :, model.hidden :], cache["h"][12:0:-1, 1])


@pytest.mark.bigru
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [12, 112])
def test_forward_without_cache_on_one_arena_matches_the_cached_run(dtype, rows):
    # without a cache the second layer writes its output over its input,
    # the first layer's output, in the one arena
    model = RefinerModel.init_random(hidden=64, d_att=32, window=100, seed=5)
    x = make_rng(88).uniform(-2.0, 2.0, size=(rows, 100))
    mem = _Arena()
    want = _forward(x, model, dtype, keep_cache=True, mem=mem)[0]
    got = _forward(x, model, dtype, keep_cache=False, mem=mem)[0]
    assert np.array_equal(got, want)


@pytest.mark.bigru
def test_float32_forward_without_cache_keeps_one_layer_output():
    # a 112-row block of the shipped shapes: states, projections, one step's
    # gates and one (L, B, 2H) output, about 13.1 MB; a second output would
    # add 5.7
    model = RefinerModel.init_random(hidden=64, d_att=32, window=100, seed=6)
    x = make_rng(89).uniform(-2.0, 2.0, size=(112, 100))
    mem = _Arena()
    _forward(x, model, np.float32, keep_cache=False, mem=mem)
    assert sum(buf.nbytes for buf in mem._buffers.values()) <= 14e6


@pytest.mark.bigru
def test_float32_training_block_keeps_a_ring_of_gate_gradients():
    # one 128-row training block of the shipped shapes: both layers'
    # caches, about 65.6 MB, plus the backward's eight-step ring of gate
    # gradients, its chunk copies, the step buffers and dx; a whole-window
    # (2, L, B, 3H) da would add 18 MB, a separate dh2 buffer 6.6 MB
    model = RefinerModel.init_random(hidden=64, d_att=32, window=100, seed=7)
    rng = make_rng(90)
    x = rng.uniform(-2.0, 2.0, size=(_MAX_BLOCK_ROWS, 100))
    truth = x + rng.normal(0.0, 0.3, size=x.shape)
    mem = _Arena()
    out, cache = _forward(x, model, np.float32, keep_cache=True, mem=mem)
    _backward((2.0 / x.size) * (out - truth), cache, model, mem=mem)
    assert sum(buf.nbytes for buf in mem._buffers.values()) <= 80e6


def on_a_new_thread(fn):
    """fn() on a new thread, which starts with no arenas, so its calls
    are cold whatever this thread ran before; returns fn's result."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=300)


def test_float32_refine_batch_peak_memory_stays_below_48_mb():
    # one full chunk of the shipped shapes: a whole-window (L, B, 3H)
    # projection per direction would add about 20 MB each
    model = RefinerModel.init_random(hidden=64, d_att=32, window=100, seed=1)
    x = make_rng(72).uniform(-1.0, 1.0, size=(256, 100))
    tracemalloc.start()
    try:
        on_a_new_thread(lambda: refine_batch(x, model, dtype=np.float32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48e6


@pytest.mark.bigru
def test_a_second_refine_batch_call_reuses_the_first_ones_memory(monkeypatch):
    # a long file's refine_batch calls on one thread: the first pages in
    # both workers' arenas, the second allocates little beyond its output
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # the two blocks' forwards take turns, so the peak does not depend on
    # whether both blocks' per-call temporaries are alive at once
    turn = threading.Lock()
    forward = refiner._forward

    def one_at_a_time(*args, **kwargs):
        with turn:
            return forward(*args, **kwargs)

    monkeypatch.setattr(refiner, "_forward", one_at_a_time)
    model = RefinerModel.init_random(hidden=16, d_att=8, window=100, seed=2)
    x = make_rng(86).uniform(-1.0, 1.0, size=(256, 100))

    def two_calls():
        arenas = refiner._THREAD_ARENAS.by_worker
        new_bytes, buffers = [], []
        for call in range(2):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            refine_batch(x, model)
            if call == 0:
                # the calling thread may have run both blocks before worker
                # 1 took one: fill each worker's arena with its block, so
                # the second call finds both paged in whichever runs what
                for worker, part in enumerate(_blocks(len(x))):
                    mem = arenas.setdefault(worker, _Arena())
                    _forward(x[part], model, np.float32, keep_cache=False, mem=mem)
            new_bytes.append(tracemalloc.get_traced_memory()[1] - before)
            buffers.append(
                {(w, role): buf for w, mem in arenas.items() for role, buf in mem._buffers.items()}
            )
        return new_bytes, buffers

    tracemalloc.start()
    try:
        (first, second), (paged, reused) = on_a_new_thread(two_calls)
    finally:
        tracemalloc.stop()
    assert second < 0.2 * first
    # a buffer that grew would be a new object
    assert {w for w, _ in paged} == {0, 1}
    assert paged.keys() == reused.keys()
    assert all(reused[key] is buf for key, buf in paged.items())


def test_a_threads_arenas_are_released_when_it_ends(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = RefinerModel.init_random(hidden=16, d_att=8, window=100, seed=3)
    x = make_rng(87).uniform(-1.0, 1.0, size=(256, 100))
    held = []

    def call():
        refine_batch(x, model, dtype=np.float32)
        held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=60)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    # the arenas outlive the call, and go with the thread
    assert held[0] - before > 4e6
    assert abs(after - before) < 1e6


@pytest.mark.bigru
def test_float32_forward_computes_in_float32_and_returns_float64():
    # a float64 constant or parameter anywhere in the forward would promote
    # the arrays after it back to float64
    rng = make_rng(71)
    model = small_model(seed=14)
    x = rng.uniform(-2.0, 2.0, size=(3, 12))
    out, cache = _forward(x, model, np.float32, keep_cache=True, mem=_Arena())
    arrays = [cache["h2"], *cache["att"].values()]
    for layer in (cache["cache1"], cache["cache2"]):
        arrays.extend(layer.values())
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    # h2, four attention arrays (hbar, q, alpha, context), and x, h, zr,
    # hc of two layers
    assert len(arrays) == 1 + 4 + 2 * 4
    assert all(a.dtype == np.float32 for a in arrays)
    assert type(cache["att"]["scale"]) is float
    assert out.dtype == np.float64
    got = refine_batch(x, model, dtype=np.float32)
    assert got.dtype == np.float64
    assert np.array_equal(got, out)
    assert np.max(np.abs(got - refine_batch(x, model, dtype=np.float64))) <= 1e-5


def test_a_call_without_dtype_is_the_float32_call():
    # the network's precision is decided in refiner alone: its callers
    # pass no dtype and get float32, in two blocks here
    rng = make_rng(92)
    model = small_model(seed=26)
    noisy = rng.uniform(-2.0, 2.0, size=(70, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    assert np.array_equal(
        refine_batch(noisy, model), refine_batch(noisy, model, dtype=np.float32)
    )
    loss, grads = batch_gradients(noisy, truth, model)
    loss32, grads32 = batch_gradients(noisy, truth, model, dtype=np.float32)
    assert loss == loss32
    assert all(np.array_equal(g, grads32[name]) for name, g in grads.items())


def test_forward_is_deterministic():
    rng = make_rng(55)
    model = small_model(seed=6)
    x = rng.normal(size=(2, 12))
    assert np.array_equal(refine_batch(x, model), refine_batch(x, model))


def test_additive_shift_equivariance():
    # mean normalization cancels constant offsets up to rounding
    rng = make_rng(56)
    model = small_model(seed=7)
    x = rng.uniform(-1.0, 1.0, size=(2, 12))
    for c in (0.5, -3.0, 2.75):
        lhs = refine_batch(x + c, model, dtype=np.float64)
        rhs = refine_batch(x, model, dtype=np.float64) + c
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_refine_window_shape_contract():
    # rows of 1 to window frames are refined; the network takes any length
    model = small_model()
    out = refine_batch(np.linspace(-1.0, 1.0, 11)[None], model)
    assert out.shape == (1, 11)
    assert np.isfinite(out).all()
    for bad in (np.zeros((2, 13)), np.zeros((2, 0)), np.zeros(12)):
        with pytest.raises(ShapeError):
            refine_batch(bad, model)


def test_mse_loss_hand_value():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    truth = np.array([[1.0, 0.0], [0.0, 4.0]])
    assert mse_loss(pred, truth) == pytest.approx((4.0 + 9.0) / 4.0, abs=1e-15)
    with pytest.raises(ShapeError):
        mse_loss(pred, truth[:1])


def test_batch_gradients_loss_matches_forward():
    rng = make_rng(57)
    model = small_model(seed=8)
    noisy = rng.normal(size=(4, 12))
    truth = rng.normal(size=(4, 12))
    loss, grads = batch_gradients(noisy, truth, model, dtype=np.float64)
    want = mse_loss(refine_batch(noisy, model, dtype=np.float64), truth)
    assert loss == pytest.approx(want, rel=1e-12)
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape


# the backward takes its weight gradients _PROJ_BLOCK = 8 steps at a time:
# a window shorter than one chunk, exactly one, and a partial first chunk
FD_WINDOWS = [5, 8, 12, 13]


@pytest.mark.parametrize("window", FD_WINDOWS)
def test_every_parameter_gradient_matches_finite_differences(window):
    # the 1e-5 scale floor keeps central-difference roundoff (about
    # eps * loss / h ~ 1e-11 absolute here) from dominating coordinates
    # whose true gradient is near zero
    rng = make_rng(58)
    model = small_model(seed=9, window=window)
    noisy = rng.normal(0.0, 1.0, size=(3, window))
    truth = noisy + rng.normal(0.0, 0.3, size=(3, window))
    grads = batch_gradients(noisy, truth, model, dtype=np.float64)[1]
    h = 1e-6
    worst = 0.0
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = mse_loss(refine_batch(noisy, model, dtype=np.float64), truth)
            flat[idx] = keep - h
            down = mse_loss(refine_batch(noisy, model, dtype=np.float64), truth)
            flat[idx] = keep
            fd = (up - down) / (2.0 * h)
            scale = max(abs(fd), abs(gflat[idx]), 1e-5)
            worst = max(worst, abs(fd - gflat[idx]) / scale)
    assert worst <= 1e-4


@pytest.mark.parametrize("window", FD_WINDOWS)
def test_directional_derivative_matches_finite_differences(window):
    # a random full-gradient projection has O(1e-2) magnitude, far above
    # the finite-difference noise floor, so this pins the small entries too
    rng = make_rng(60)
    model = small_model(seed=9, window=window)
    noisy = rng.normal(0.0, 1.0, size=(3, window))
    truth = noisy + rng.normal(0.0, 0.3, size=(3, window))
    grads = batch_gradients(noisy, truth, model, dtype=np.float64)[1]
    direction = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in grads)
    h = 1e-6
    for name in model.params:
        model.params[name] += h * direction[name]
    up = mse_loss(refine_batch(noisy, model, dtype=np.float64), truth)
    for name in model.params:
        model.params[name] -= 2.0 * h * direction[name]
    down = mse_loss(refine_batch(noisy, model, dtype=np.float64), truth)
    for name in model.params:
        model.params[name] += h * direction[name]
    fd = (up - down) / (2.0 * h)
    assert analytic == pytest.approx(fd, rel=1e-6)


def test_gradients_nonzero_where_expected():
    rng = make_rng(59)
    model = small_model(seed=10)
    noisy = rng.normal(size=(4, 12))
    truth = rng.normal(size=(4, 12))
    grads = batch_gradients(noisy, truth, model)[1]
    assert any(np.abs(g).max() > 1e-8 for g in grads.values())
    assert np.abs(grads["head.b_o"]).max() > 0


def test_float32_gradients_match_float64():
    # training computes its gradients in float32; Adam gets them as float64
    rng = make_rng(62)
    model = RefinerModel.init_random(hidden=16, d_att=8, window=40, seed=11)
    noisy = rng.uniform(-2.0, 2.0, size=(32, 40))
    truth = noisy + rng.normal(0.0, 0.3, size=(32, 40))
    loss64, grads64 = batch_gradients(noisy, truth, model, dtype=np.float64)
    loss32, grads32 = batch_gradients(noisy, truth, model, dtype=np.float32)
    assert loss32 == pytest.approx(loss64, rel=1e-6)
    assert set(grads32) == set(grads64)
    for name, g in grads32.items():
        assert g.dtype == np.float64
        assert g.shape == model.params[name].shape
        want = grads64[name]
        assert np.linalg.norm(g - want) <= 1e-4 * np.linalg.norm(want), name


@pytest.mark.bigru
def test_float32_backward_computes_in_float32():
    # a float64 weight or constant anywhere in the backward would promote
    # everything after it to float64
    rng = make_rng(63)
    model = small_model(seed=15)
    x = rng.uniform(-2.0, 2.0, size=(3, 12))
    truth = x + rng.normal(0.0, 0.3, size=(3, 12))
    out, cache = _forward(x, model, np.float32, keep_cache=True, mem=_Arena())
    grads = _backward((2.0 / x.size) * (out - truth), cache, model, mem=_Arena())
    assert set(grads) == set(model.params)
    assert all(g.dtype == np.float32 for g in grads.values())
    for layer in ("cache1", "cache2"):
        assert all(a.dtype == np.float32 for a in cache[layer].values())
    dout = rng.normal(size=(12, 3, 2 * model.hidden)).astype(np.float32)
    dx, layer_grads = _bigru_backward(
        cache["cache2"], model, "l2", dout, need_dx=True, mem=_Arena()
    )
    assert dx.dtype == np.float32
    assert dx.shape == cache["cache2"]["x"].shape
    assert all(g.dtype == np.float32 for g in layer_grads.values())
    dx1, _ = _bigru_backward(cache["cache1"], model, "l1", dx, need_dx=False, mem=_Arena())
    assert dx1 is None


def gru_direction_backward(seq, cell, dstates):
    """Oracle: BPTT through one GRU direction run step by step over seq
    (B, T, d_in), given the gradient of every step's state (B, T, H).
    Returns dx (B, T, d_in) and the cell's nine gradients."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    steps = []
    h = np.zeros((seq.shape[0], cell["U_z"].shape[0]))
    for t in range(seq.shape[1]):
        x = seq[:, t]
        z = sigmoid(x @ cell["W_z"] + h @ cell["U_z"] + cell["b_z"])
        r = sigmoid(x @ cell["W_r"] + h @ cell["U_r"] + cell["b_r"])
        hc = np.tanh(x @ cell["W_h"] + (r * h) @ cell["U_h"] + cell["b_h"])
        steps.append((x, h, z, r, hc))
        h = (1.0 - z) * h + z * hc
    grads = {name: np.zeros_like(value) for name, value in cell.items()}
    dx = np.zeros_like(seq)
    dh = np.zeros_like(h)
    for t in range(seq.shape[1] - 1, -1, -1):
        x, hp, z, r, hc = steps[t]
        dh = dh + dstates[:, t]
        da = {
            "z": dh * (hc - hp) * z * (1.0 - z),
            "h": dh * z * (1.0 - hc * hc),
        }
        drh = da["h"] @ cell["U_h"].T
        da["r"] = drh * hp * r * (1.0 - r)
        dh_prev = dh * (1.0 - z) + drh * r
        for g in "zrh":
            grads[f"W_{g}"] += x.T @ da[g]
            grads[f"U_{g}"] += (r * hp if g == "h" else hp).T @ da[g]
            grads[f"b_{g}"] += da[g].sum(axis=0)
            dx[:, t] += da[g] @ cell[f"W_{g}"].T
            if g != "h":
                dh_prev = dh_prev + da[g] @ cell[f"U_{g}"].T
        dh = dh_prev
    return dx, grads


@pytest.mark.bigru
def test_bigru_backward_matches_stepwise_oracle():
    rng = make_rng(81)
    model = small_model(seed=22)
    hidden = model.hidden
    for layer, d_in in (("l1", 1), ("l2", 2 * hidden)):
        for length in (2, 7, 17):
            for batch in (1, 3):
                seq = rng.normal(size=(batch, length, d_in))
                dout = rng.normal(size=(batch, length, 2 * hidden))
                dx_f, want = gru_direction_backward(
                    seq, model.cell(f"{layer}.fwd"), dout[:, :, :hidden]
                )
                # the backward direction reads the window reversed
                dx_b, want_b = gru_direction_backward(
                    seq[:, ::-1], model.cell(f"{layer}.bwd"), dout[:, ::-1, hidden:]
                )
                want_dx = dx_f + dx_b[:, ::-1]
                want = {f"{layer}.fwd.{name}": g for name, g in want.items()}
                want.update({f"{layer}.bwd.{name}": g for name, g in want_b.items()})
                _, cache = _bigru_forward(
                    seq.transpose(1, 0, 2), model, layer, keep_cache=True, mem=_Arena()
                )
                for need_dx in (True, False):
                    dx, grads = _bigru_backward(
                        cache, model, layer, dout.transpose(1, 0, 2), need_dx, mem=_Arena()
                    )
                    assert set(grads) == set(want)
                    for name, g in grads.items():
                        scale = np.abs(want[name]).max()
                        assert np.abs(g - want[name]).max() <= 1e-12 * scale, name
                    if need_dx:
                        got_dx = dx.transpose(1, 0, 2)
                        scale = np.abs(want_dx).max()
                        assert np.abs(got_dx - want_dx).max() <= 1e-12 * scale
                    else:
                        assert dx is None


def head_attention_backward_oracle(dout, h2, model):
    """Oracle: the output head and attention backward with the key
    gradient (B, L, d_att) and the h2 gradient's terms as full (B, L, 2H)
    arrays.  h2 is batch-major (B, L, 2H); returns the four weight
    gradients and h2's gradient, batch-major."""
    wq, wk = model.params["att.W_q"], model.params["att.W_k"]
    wo = model.params["head.W_o"][:, 0]
    wo_h, wo_c = wo[: 2 * model.hidden], wo[2 * model.hidden :]
    length = h2.shape[1]
    # the forward, recomputed from h2
    scale = 1.0 / math.sqrt(model.d_att)
    hbar = h2.mean(axis=1)
    q = hbar @ wq
    k = h2 @ wk
    scores = np.einsum("bld,bd->bl", k, q) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    context = np.einsum("bl,blh->bh", alpha, h2)
    # the backward
    dhead = np.pi * dout
    dcontext = dhead.sum(axis=1)[:, None] * wo_c
    dalpha = np.einsum("bh,blh->bl", dcontext, h2)
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True)) * scale
    dk = dscores[:, :, None] * q[:, None, :]
    dq = np.einsum("bld,bl->bd", k, dscores)
    dh2 = dhead[:, :, None] * wo_h
    dh2 = dh2 + alpha[:, :, None] * dcontext[:, None, :]
    dh2 = dh2 + dk @ wk.T
    dh2 = dh2 + (dq @ wq.T)[:, None, :] / length
    grads = {
        "att.W_q": hbar.T @ dq,
        "att.W_k": np.tensordot(h2, dk, axes=([0, 1], [0, 1])),
        "head.W_o": np.concatenate(
            [np.einsum("bl,blh->h", dhead, h2), context.T @ dhead.sum(axis=1)]
        )[:, None],
        "head.b_o": np.array([dhead.sum()]),
    }
    return grads, dh2


@pytest.mark.bigru
def test_attention_and_head_backward_match_the_full_oracle(monkeypatch):
    # d_att = 3 differs from 2H = 8, and B = 5 from L = 12
    rng = make_rng(82)
    model = small_model(seed=23)
    assert model.d_att != 2 * model.hidden
    x = rng.uniform(-2.0, 2.0, size=(5, 12))
    dout = rng.normal(size=(5, 12))
    seen = {}
    real = refiner._bigru_backward

    def record(cache, model, layer, dout, need_dx, **kwargs):
        seen.setdefault(layer, dout.copy())
        return real(cache, model, layer, dout, need_dx, **kwargs)

    monkeypatch.setattr(refiner, "_bigru_backward", record)
    _, cache = _forward(x, model, np.float64, keep_cache=True, mem=_Arena())
    grads = _backward(dout, cache, model, mem=_Arena())
    want, want_dh2 = head_attention_backward_oracle(
        dout, cache["h2"].transpose(1, 0, 2), model
    )
    for name, g in want.items():
        assert grads[name].shape == g.shape
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    # the gradient layer 2 receives, time-major (L, B, 2H)
    got_dh2 = seen["l2"].transpose(1, 0, 2)
    assert np.abs(got_dh2 - want_dh2).max() <= 1e-12 * np.abs(want_dh2).max()


def block_sizes(rows) -> list:
    """The row counts of _blocks(rows), which must tile the rows in order."""
    parts = _blocks(rows)
    assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
    assert parts[-1].stop == rows
    return [p.stop - p.start for p in parts]


@pytest.mark.bigru
def test_blocks_are_the_fewest_even_balanced_blocks():
    # a training batch of 256 is two blocks of 128, a batch of 64 rows or
    # more, such as an epoch's last, short batch, at least two blocks, and
    # a 3000-frame file's 1044 rows ten blocks of 104 or 105
    assert _MAX_BLOCK_ROWS == 128
    assert _SPLIT_ROWS == 64
    assert block_sizes(256) == [128, 128]
    assert block_sizes(102) == [51, 51]
    assert block_sizes(128) == [64, 64]
    assert block_sizes(64) == [32, 32]
    assert block_sizes(63) == [63]
    assert block_sizes(1) == [1]
    assert block_sizes(129) == [64, 65]
    assert block_sizes(3 * 128 + 5) == [97, 97, 97, 98]
    assert block_sizes(1404) == 12 * [117]
    assert block_sizes(1044) == [104, 104, 105, 104, 105, 104, 104, 105, 104, 105]
    # up to 256 rows, one block below 64 rows and two from 64 on
    assert [len(_blocks(rows)) for rows in range(1, 257)] == 63 * [1] + 193 * [2]


def blockwise_gradients(noisy, truth, model, dtype):
    """Oracle: each block's forward and backward call in turn, in fresh
    memory; the loss over the joined output errors, the gradients summed
    in float64."""
    diffs = []
    grads = {name: np.zeros(value.shape) for name, value in model.params.items()}
    for part in _blocks(len(noisy)):
        out, cache = _forward(noisy[part], model, dtype, keep_cache=True, mem=_Arena())
        diffs.append(out - truth[part])
        block = _backward((2.0 / noisy.size) * diffs[-1], cache, model, mem=_Arena())
        for name, g in block.items():
            grads[name] += g.astype(np.float64)
    diff = np.concatenate(diffs)
    return float(np.mean(diff * diff)), grads


@pytest.mark.bigru
@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_gradients_blocks_match_block_by_block_calls(monkeypatch, dtype, workers):
    # four balanced blocks on 1, 2 or 8 worker threads, switching often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    model = small_model(seed=19)
    rng = make_rng(78)
    noisy = rng.uniform(-2.0, 2.0, size=(3 * _MAX_BLOCK_ROWS + 5, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    want_loss, want = blockwise_gradients(noisy, truth, model, dtype)
    calls = record_forward_calls(monkeypatch)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loss, grads = batch_gradients(noisy, truth, model, dtype=dtype)
    finally:
        sys.setswitchinterval(interval)
    assert loss == want_loss
    assert set(grads) == set(want)
    for name, g in grads.items():
        assert g.dtype == np.float64
        assert np.array_equal(g, want[name]), name
    # the blocks ran on at most `workers` threads, the calling one
    # included, with BLAS held to one thread
    assert sorted(rows for _, _, _, rows in calls) == [97, 97, 97, 98]
    threads = {ident for ident, _, _, _ in calls}
    assert len(threads) <= workers
    if workers == 1:
        assert threads == {threading.get_ident()}
    assert all(count <= before + workers - 1 for _, _, count, _ in calls)
    assert all(blas in (None, 1) for _, blas, _, _ in calls)


@pytest.mark.bigru
def test_batch_gradients_restores_the_blas_thread_count(monkeypatch):
    control = refiner._blas_thread_control()
    if control is None:
        pytest.skip("the OpenBLAS thread setting of numpy is not found")
    get, put = control
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = small_model(seed=20)
    rng = make_rng(79)
    noisy = rng.uniform(-2.0, 2.0, size=(2 * _MAX_BLOCK_ROWS, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    calls = record_forward_calls(monkeypatch)
    before = get()
    # two BLAS threads, so that there is a setting to save and restore
    put(2)
    try:
        batch_gradients(noisy, truth, model, dtype=np.float32)
        assert get() == 2
    finally:
        put(before)
    assert [(blas, rows) for _, blas, _, rows in calls] == [(1, 128), (1, 128)]


@pytest.mark.bigru
def test_one_block_batch_gradients_starts_no_thread_and_leaves_blas_alone(monkeypatch):
    def refuse():
        raise AssertionError("a one-block call looked up BLAS")

    calls = record_forward_calls(monkeypatch)
    monkeypatch.setattr(refiner, "_blas_thread_control", refuse)
    model = small_model(seed=21)
    rng = make_rng(80)
    noisy = rng.uniform(-2.0, 2.0, size=(_SPLIT_ROWS - 1, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    before = threading.active_count()
    loss, grads = batch_gradients(noisy, truth, model, dtype=np.float32)
    assert [(ident, count, rows) for ident, _, count, rows in calls] == [
        (threading.get_ident(), before, _SPLIT_ROWS - 1)
    ]
    assert threading.active_count() == before
    want_loss, want = blockwise_gradients(noisy, truth, model, np.float32)
    assert loss == want_loss
    assert all(np.array_equal(g, want[name]) for name, g in grads.items())


@pytest.mark.parametrize("rows", [0, 3])
def test_batch_gradients_rejects_an_empty_batch(rows):
    # no rows, or rows of no frames: the loss would divide by zero
    model = small_model()
    empty = np.zeros((rows, 0 if rows else 12))
    with pytest.raises(ShapeError):
        batch_gradients(empty, empty, model)


def poison(arenas):
    """Fill every buffer of every arena with NaN bytes, in float32 and
    float64 alike, so a read of memory that a call did not write first
    shows in its result."""
    for arena in arenas.values():
        for buf in arena._buffers.values():
            buf.fill(0xFF)


@pytest.mark.bigru
def test_arena_steps_match_calls_in_fresh_memory(monkeypatch):
    # one thread's steps, with the row count going 256 -> 102 -> 256, in
    # float32 and then in float64, each step followed by a validation call
    # and with the memory poisoned in between: every step and every
    # validation must equal its blocks' calls in fresh memory, bit for bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = small_model(seed=24)
    rng = make_rng(83)

    def steps():
        arenas = refiner._THREAD_ARENAS.by_worker
        for dtype in (np.float32, np.float64):
            for rows in (256, 102, 256):
                noisy = rng.uniform(-2.0, 2.0, size=(rows, 12))
                truth = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
                want_loss, want = blockwise_gradients(noisy, truth, model, dtype)
                loss, grads = batch_gradients(noisy, truth, model, dtype=dtype)
                assert loss == want_loss
                for name, g in grads.items():
                    assert np.array_equal(g, want[name]), (np.dtype(dtype).name, rows, name)
                poison(arenas)
                val = noisy[: rows // 2]
                refined = refine_batch(val, model, dtype=np.float32)
                assert np.array_equal(refined, blockwise(val, model, np.float32))
                poison(arenas)
        # the blocks ran on both workers, each in its own arena
        assert sorted(arenas) == [0, 1]

    on_a_new_thread(steps)


def test_concurrent_training_runs_equal_the_runs_one_after_the_other(monkeypatch):
    # each run's thread keeps its own arenas: two runs at once, switching
    # threads often, give the bits that they give one after the other
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = make_rng(84)
    jobs = []
    for seed in (6, 7):
        truth = np.sin(np.linspace(0.0, 6.0, 12))[None] + rng.uniform(-1.0, 1.0, size=(200, 1))
        noisy = truth + rng.normal(0.0, 0.2, size=truth.shape)
        config = TrainConfig(hidden=4, d_att=3, batch_size=128, max_epochs=2, seed=seed)
        jobs.append((noisy, truth, config))
    want = [train_on_arrays(*job) for job in jobs]
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        got[i] = train_on_arrays(*jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (model, log), (want_model, want_log) in zip(got, want):
        assert [(e.train_mse, e.val_mse) for e in log.entries] == [
            (e.train_mse, e.val_mse) for e in want_log.entries
        ]
        for name, value in want_model.params.items():
            assert np.array_equal(model.params[name], value), name


def test_training_steps_after_the_first_reuse_their_memory(monkeypatch):
    # the first step takes each block's working memory; later steps of the
    # run, and its validation, reuse it and allocate far less
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real = training.batch_gradients
    new_bytes = []

    def traced(*args, **kwargs):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = real(*args, **kwargs)
        new_bytes.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(training, "batch_gradients", traced)
    rng = make_rng(85)
    truth = np.sin(np.linspace(0.0, 6.0, 40))[None] + rng.uniform(-1.0, 1.0, size=(1100, 1))
    noisy = truth + rng.normal(0.0, 0.2, size=truth.shape)
    config = TrainConfig(hidden=16, d_att=8, batch_size=256, max_epochs=2, seed=8)
    tracemalloc.start()
    try:
        on_a_new_thread(lambda: train_on_arrays(noisy, truth, config))
    finally:
        tracemalloc.stop()
    # per epoch, three steps of 256 rows and one of 222
    first, *rest = new_bytes
    assert len(rest) == 7
    assert max(rest) < 0.2 * first


def test_float32_batch_gradients_peak_memory_stays_below_260_mb():
    # one training batch of the shipped shapes; in float64 the caches and
    # the gate gradients peak at about 450 MB
    model = RefinerModel.init_random(hidden=64, d_att=32, window=100, seed=1)
    rng = make_rng(73)
    x = rng.uniform(-1.0, 1.0, size=(256, 100))
    y = x + rng.normal(0.0, 0.1, size=x.shape)
    tracemalloc.start()
    try:
        on_a_new_thread(lambda: batch_gradients(x, y, model, dtype=np.float32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 260e6


@pytest.mark.bigru
def test_training_is_bitwise_repeatable(monkeypatch, tmp_path):
    # 270 training windows: a 256-row batch of two gradient blocks, then
    # 14; the same seed must give the same bits on one and on two CPUs
    rng = make_rng(64)
    truth = np.sin(np.linspace(0.0, 6.0, 12))[None] + rng.uniform(-1.0, 1.0, size=(300, 1))
    noisy = truth + rng.normal(0.0, 0.2, size=truth.shape)
    config = TrainConfig(hidden=4, d_att=3, batch_size=256, max_epochs=3, seed=5)
    calls = record_forward_calls(monkeypatch)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        model, log = train_on_arrays(noisy, truth, config)
        save_train_log(log, tmp_path / f"{cpus}.json")
        runs.append((model.params, (tmp_path / f"{cpus}.json").read_bytes()))
    (params_a, log_a), (params_b, log_b) = runs
    assert log_a == log_b
    assert set(params_a) == set(params_b)
    for name, value in params_a.items():
        assert value.dtype == np.float64
        assert np.array_equal(value, params_b[name]), name
    # per epoch: two blocks of 128, one of 14, then the 30 validation rows
    assert [rows for _, _, _, rows in calls] == 2 * 3 * [128, 128, 14, 30]


def test_training_runs_every_epoch_and_returns_the_best_one(monkeypatch):
    # validation MSE rises every epoch, so epoch 0 stays the best; all
    # eight epochs still run, and the model returned is epoch 0's
    rng = make_rng(86)
    truth = np.sin(np.linspace(0.0, 6.0, 12))[None] + rng.uniform(-1.0, 1.0, size=(60, 1))
    noisy = truth + rng.normal(0.0, 0.2, size=truth.shape)
    settings = dict(hidden=3, d_att=2, batch_size=16, seed=9)
    one_epoch, _ = train_on_arrays(noisy, truth, TrainConfig(max_epochs=1, **settings))
    calls = []

    def worse_each_call(x, model):
        calls.append(len(x))
        return np.full_like(x, 10.0 * len(calls))

    monkeypatch.setattr(training, "refine_batch", worse_each_call)
    model, log = train_on_arrays(noisy, truth, TrainConfig(max_epochs=8, **settings))
    assert [e.epoch for e in log.entries] == list(range(8))
    assert calls == 8 * [6]
    assert log.best_epoch == 0
    assert log.best_val_mse == log.entries[0].val_mse < log.entries[-1].val_mse
    for name, value in one_epoch.params.items():
        assert np.array_equal(model.params[name], value), name


def test_non_finite_windows_diverge_in_epoch_zero():
    rng = make_rng(61)
    noisy = rng.normal(size=(8, 12))
    noisy[3, 5] = np.nan
    with pytest.raises(TrainingDivergedError) as info:
        train_on_arrays(noisy, np.zeros((8, 12)), TrainConfig(hidden=3, d_att=2, batch_size=4))
    assert info.value.epoch == 0


VALIDATED_LOG = """\
{
  "best_epoch": 1,
  "best_val_mse": 0.0625,
  "config": {
    "batch_size": 4,
    "d_att": 2,
    "hidden": 2,
    "learning_rate": 0.001,
    "max_epochs": 3,
    "seed": 3,
    "validation_fraction": 0.3333333333333333
  },
  "entries": [
    {
      "epoch": 0,
      "train_mse": 0.375,
      "val_mse": 0.25
    },
    {
      "epoch": 1,
      "train_mse": 0.1875,
      "val_mse": 0.0625
    },
    {
      "epoch": 2,
      "train_mse": 0.125,
      "val_mse": 0.140625
    }
  ],
  "seed": 3
}
"""

UNVALIDATED_LOG = """\
{
  "best_epoch": 1,
  "best_val_mse": null,
  "config": {
    "batch_size": 4,
    "d_att": 2,
    "hidden": 2,
    "learning_rate": 0.001,
    "max_epochs": 3,
    "seed": 3,
    "validation_fraction": 0.0
  },
  "entries": [
    {
      "epoch": 0,
      "train_mse": 0.5,
      "val_mse": null
    },
    {
      "epoch": 1,
      "train_mse": 0.125,
      "val_mse": null
    },
    {
      "epoch": 2,
      "train_mse": 0.25,
      "val_mse": null
    }
  ],
  "seed": 3
}
"""


@pytest.mark.parametrize(
    "fraction, batch_losses, val_offsets, want",
    [
        # 4 validation windows; epoch 1 has the best val MSE, epoch 2 the best train MSE
        (1 / 3, [0.5, 0.25, 0.25, 0.125, 0.125, 0.125], [0.5, 0.25, 0.375], VALIDATED_LOG),
        # no validation windows: null val MSEs, best epoch by train MSE
        (0.0, 3 * [0.5] + 3 * [0.125] + 3 * [0.25], [], UNVALIDATED_LOG),
    ],
    ids=["validated", "unvalidated"],
)
def test_train_log_bytes(monkeypatch, tmp_path, fraction, batch_losses, val_offsets, want):
    # a stand-in network whose losses are binary fractions, so the log's
    # bytes do not depend on the machine's rounding
    def gradients(x, y, model):
        return batch_losses.pop(0), {k: np.zeros_like(v) for k, v in model.params.items()}

    monkeypatch.setattr(training, "batch_gradients", gradients)
    monkeypatch.setattr(training, "refine_batch", lambda x, model: x + val_offsets.pop(0))
    zeros = np.zeros((12, 5))
    config = TrainConfig(
        batch_size=4, max_epochs=3, validation_fraction=fraction, hidden=2, d_att=2, seed=3
    )
    _, log = train_on_arrays(zeros, zeros, config)
    assert not batch_losses and not val_offsets
    path = tmp_path / "log.json"
    save_train_log(log, path)
    assert path.read_text() == want
    # with timing, each entry adds its two wall-clock keys and nothing else changes
    save_train_log(log, path, include_timing=True)
    timed = json.loads(path.read_text())
    for entry in timed["entries"]:
        assert entry.pop("wall_time_s") > 0.0
        assert entry.pop("windows_per_s") > 0.0
    assert timed == json.loads(want)


def test_epoch_stats_line():
    assert str(EpochStats(3, 0.5, 0.25, 1.5, 10.0)) == "epoch 3: train 0.500000 val 0.250000 (1.5s)"
    assert str(EpochStats(0, 0.125, None, 12.0, 10.0)) == "epoch 0: train 0.125000 (12.0s)"


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip(tmp_path):
    model = small_model(seed=11)
    path = tmp_path / "m.jarm"
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.hidden, loaded.d_att, loaded.window) == (4, 3, 12)
    for name, tensor in model.params.items():
        assert np.array_equal(loaded.params[name], tensor)
    # save again: byte-identical
    path2 = tmp_path / "m2.jarm"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _set_header(start: int, value: int):
    return lambda data: data[:start] + value.to_bytes(4, "little") + data[start + 4 :]


def _empty_first_tensor(data: bytes) -> bytes:
    # att.W_k, (8, 3) at offset 24, becomes rank 4 with no elements but a
    # shape too large for numpy
    name = b"\x07\x00att.W_k"
    start, end = 24 + len(name), 24 + len(name) + 4 + 8 + 8 * 24
    return data[:start] + struct.pack("<5I", 4, 0, 2, 2**31, 2**31) + data[end:]


def _set_head_bias(value):
    def edit(params):
        params["head.b_o"][0] = value

    return edit


# case: (edit of small_model()'s tensors, edit of its file's bytes, message).
# The header is magic (0-4), version (4-8), hidden, d_att, window (16-20)
# and the tensor count; the tensors follow in name order.
MALFORMED_MODELS = {
    "bad-magic": (None, lambda data: b"NOPE" + data[4:], "bad magic; not a refiner model file"),
    "bad-version": (None, _set_header(4, 99), "unsupported model version 99"),
    "truncated": (None, lambda data: data[:-1], "model file is truncated"),
    "trailing-bytes": (
        None, lambda data: data + b"\x00\x01", "trailing bytes after the tensor table"
    ),
    "empty-huge-shape": (
        None,
        _empty_first_tensor,
        "tensor shape (0, 2, 2147483648, 2147483648) is not an array numpy can hold",
    ),
    "duplicated-tensor": (
        None,
        lambda data: data.replace(b"att.W_q", b"att.W_k", 1),
        "tensor 'att.W_k' is listed twice",
    ),
    "missing-tensor": (
        lambda params: params.pop("head.b_o"),
        None,
        "parameter names mismatch: missing=['head.b_o'] extra=[]",
    ),
    "wrong-shape": (
        lambda params: params.update({"att.W_q": np.zeros((3, 3))}),
        None,
        "att.W_q must have shape (8, 3), got (3, 3)",
    ),
    "window-1": (None, _set_header(16, 1), "hidden and d_att must be >= 1, window >= 2"),
    "nan": (_set_head_bias(np.nan), None, "tensor 'head.b_o' has non-finite values"),
    "inf": (_set_head_bias(np.inf), None, "tensor 'head.b_o' has non-finite values"),
    # finite in float64, infinite in the float32 network
    "1e300": (_set_head_bias(1e300), None, "tensor 'head.b_o' has values beyond float32"),
}


@pytest.mark.parametrize(
    "edit_params, edit_bytes, message", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys()
)
def test_a_malformed_model_file_is_refused(tmp_path, capsys, edit_params, edit_bytes, message):
    model = small_model()
    if edit_params is not None:
        edit_params(model.params)
    path = tmp_path / "m.jarm"
    save_model(model, path)
    if edit_bytes is not None:
        path.write_bytes(edit_bytes(path.read_bytes()))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == message
    # past a good magic and version, the tensor table is what is corrupt
    wrong_header = message.startswith(("bad magic", "unsupported model version"))
    assert type(exc.value) is (ModelFormatError if wrong_header else CorruptModelError)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    write_keypoints(smooth_sequence(make_rng(64), 30), src)
    assert main(["refine", "--input", str(src), "--model", str(path), "--output", str(out)]) == 2
    # pyproject.toml makes a RuntimeWarning an error, and none is printed
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_large_header_window_loads_and_refines_a_clip_at_its_own_length(
    tmp_path, monkeypatch
):
    # the header window is bytes 16-20; a clip of at most one window is one
    # batch of its own length, so no allocation follows the header window
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = bytearray(path.read_bytes())
    data[16:20] = (100000).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    assert load_model(path).window == 100000
    calls = []
    original = windows.refine_batch

    def spy(rows, model):
        calls.append(np.shape(rows))
        return original(rows, model)

    monkeypatch.setattr(windows, "refine_batch", spy)
    src = tmp_path / "in.json"
    write_keypoints(smooth_sequence(make_rng(64), 160), src)
    refine_keypoint_file(src, path, tmp_path / "out.json")
    assert calls == [(12, 160)]
    data[16:20] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptModelError, match="window"):
        load_model(path)
    with pytest.raises(ShapeError, match="window"):
        small_model(window=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", math.inf),
        ("learning_rate", math.nan),
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("batch_size", 0),
        ("max_epochs", 0),
        ("validation_fraction", 1.0),
        ("seed", -1),
    ],
)
def test_train_config_refuses_unusable_settings(field, value):
    # an infinite learning rate turns every weight to NaN in the first step
    with pytest.raises(ShapeError, match=field):
        TrainConfig(**{field: value})


def test_load_rejects_every_proper_prefix(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(RefinerModel.init_random(hidden=2, d_att=1, window=4, seed=0), path)
    data = path.read_bytes()
    for end in range(len(data)):
        path.write_bytes(data[:end])
        with pytest.raises((CorruptModelError, ModelFormatError)):
            load_model(path)


def test_load_rejects_undecodable_tensor_name(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = bytearray(path.read_bytes())
    data[26] = 0xFF  # first byte of the first tensor's name
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptModelError, match="parameter names mismatch"):
        load_model(path)
