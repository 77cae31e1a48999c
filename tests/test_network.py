"""Refiner network: forward oracles, gradients, serialization."""

import math

import numpy as np
import pytest

from poserefine import (
    CorruptModelError,
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
    save_model,
    train_on_arrays,
)
from poserefine.refiner import _attention_forward, _bigru_forward

from conftest import make_rng


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


def test_bigru_layer_matches_stepwise_oracle():
    rng = make_rng(52)
    model = small_model(seed=3)
    x = rng.normal(size=(2, 12, 1))

    def run_direction(seq, cell):
        h = np.zeros((seq.shape[0], model.hidden))
        states = []
        for t in range(seq.shape[1]):
            h = gru_cell_forward(seq[:, t], h, cell)
            states.append(h)
        return np.stack(states, axis=1)

    fwd = run_direction(x, model.cell("l1.fwd"))
    bwd = run_direction(x[:, ::-1], model.cell("l1.bwd"))[:, ::-1]
    want = np.concatenate([fwd, bwd], axis=2)
    got = _bigru_forward(x, model, "l1")[0]
    assert got.shape == (2, 12, 2 * model.hidden)
    assert np.max(np.abs(got - want)) <= 1e-12

    # second layer consumes the first layer's features
    got2 = _bigru_forward(got, model, "l2")[0]
    fwd2 = run_direction(got, model.cell("l2.fwd"))
    bwd2 = run_direction(got[:, ::-1], model.cell("l2.bwd"))[:, ::-1]
    assert np.max(np.abs(got2 - np.concatenate([fwd2, bwd2], axis=2))) <= 1e-12


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


def test_full_forward_matches_public_composition():
    rng = make_rng(54)
    model = small_model(seed=5)
    x = rng.uniform(-2.0, 2.0, size=(3, 12))
    mu = x.mean(axis=1, keepdims=True)
    u = (x - mu) / np.pi
    h1 = _bigru_forward(u[:, :, None], model, "l1")[0]
    h2 = _bigru_forward(h1, model, "l2")[0]
    att = _attention_forward(h2, model.params["att.W_q"], model.params["att.W_k"])
    context = att["context"]
    feats = np.concatenate([h2, np.broadcast_to(context[:, None, :], h2.shape)], axis=2)
    head = feats @ model.params["head.W_o"][:, 0] + model.params["head.b_o"][0]
    want = x + np.pi * head
    assert np.max(np.abs(refine_batch(x, model) - want)) <= 1e-12


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
        lhs = refine_batch(x + c, model)
        rhs = refine_batch(x, model) + c
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_refine_window_shape_contract():
    model = small_model()
    with pytest.raises(ShapeError):
        refine_batch(np.zeros(11)[None], model)
    with pytest.raises(ShapeError):
        refine_batch(np.zeros((2, 13)), model)


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
    loss, grads = batch_gradients(noisy, truth, model)
    assert loss == pytest.approx(mse_loss(refine_batch(noisy, model), truth), rel=1e-12)
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape


def test_every_parameter_gradient_matches_finite_differences():
    # the 1e-5 scale floor keeps central-difference roundoff (about
    # eps * loss / h ~ 1e-11 absolute here) from dominating coordinates
    # whose true gradient is near zero
    rng = make_rng(58)
    model = small_model(seed=9)
    noisy = rng.normal(0.0, 1.0, size=(3, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=(3, 12))
    grads = batch_gradients(noisy, truth, model)[1]
    h = 1e-6
    worst = 0.0
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = mse_loss(refine_batch(noisy, model), truth)
            flat[idx] = keep - h
            down = mse_loss(refine_batch(noisy, model), truth)
            flat[idx] = keep
            fd = (up - down) / (2.0 * h)
            scale = max(abs(fd), abs(gflat[idx]), 1e-5)
            worst = max(worst, abs(fd - gflat[idx]) / scale)
    assert worst <= 1e-4


def test_directional_derivative_matches_finite_differences():
    # a random full-gradient projection has O(1e-2) magnitude, far above
    # the finite-difference noise floor, so this pins the small entries too
    rng = make_rng(60)
    model = small_model(seed=9)
    noisy = rng.normal(0.0, 1.0, size=(3, 12))
    truth = noisy + rng.normal(0.0, 0.3, size=(3, 12))
    grads = batch_gradients(noisy, truth, model)[1]
    direction = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in grads)
    h = 1e-6
    for name in model.params:
        model.params[name] += h * direction[name]
    up = mse_loss(refine_batch(noisy, model), truth)
    for name in model.params:
        model.params[name] -= 2.0 * h * direction[name]
    down = mse_loss(refine_batch(noisy, model), truth)
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


def test_non_finite_windows_diverge_in_epoch_zero():
    rng = make_rng(61)
    noisy = rng.normal(size=(8, 12))
    noisy[3, 5] = np.nan
    with pytest.raises(TrainingDivergedError) as info:
        train_on_arrays(noisy, np.zeros((8, 12)), TrainConfig(hidden=3, d_att=2, batch_size=4))
    assert info.value.epoch == 0


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


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptModelError):
        load_model(path)


def test_load_rejects_undecodable_tensor_name(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    data = bytearray(path.read_bytes())
    data[26] = 0xFF  # first byte of the first tensor's name
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptModelError, match="unexpected tensor"):
        load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.jarm"
    save_model(small_model(), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01")
    with pytest.raises(CorruptModelError):
        load_model(path)
