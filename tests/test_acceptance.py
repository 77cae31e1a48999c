"""Acceptance gate: one test per release criterion, tolerances pinned.

The desk-scale training test generates a 20k/4k corpus and trains the
default model; it dominates the suite's runtime (several minutes) but
stays well inside its 30-minute budget on one CPU core.
"""

import json
import math
import time

import numpy as np
import pytest

from poserefine import (
    NoiseSpec,
    PipelineConfig,
    RefinerModel,
    TrainConfig,
    batch_gradients,
    evaluate_metrics,
    generate_dataset,
    load_split,
    optimize_limb_lengths,
    parse_keypoints,
    plan_windows,
    pose_to_angles,
    record_events,
    refine_batch,
    refine_keypoint_file,
    save_model,
    stitch_windows,
    train_model,
    wrap_angle,
    write_keypoints,
)
from poserefine.cli import main as cli_main
from poserefine.dataset import inject_noise_events
from poserefine.fourier import eval_fourier, fit_fourier
from poserefine.conditioning import savgol_smooth
from poserefine.refiner import parameter_shapes

from conftest import (
    make_rng,
    pose_angles,
    pose_lengths,
    random_pose,
    rebuild_pose,
    smooth_sequence,
)


def test_roundtrip_kinematics_1000_poses():
    rng = make_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xy = random_pose(rng)
        theta = pose_angles(xy)
        lengths = pose_lengths(xy)
        rebuilt = rebuild_pose(xy[0], theta, lengths)
        worst = max(worst, float(np.max(np.abs(rebuilt - xy))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_similarity_transform_suite():
    rng = make_rng(1002)
    for _ in range(100):
        xy = np.round(random_pose(rng) * 8.0) / 8.0  # eighth-pixel grid
        theta = pose_angles(xy)
        lengths = pose_lengths(xy)
        for _ in range(10):
            shift = rng.integers(-500, 500, size=2).astype(float)
            assert np.array_equal(pose_angles(xy + shift), theta)

            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rot = xy @ np.array([[c, s], [-s, c]])  # row-vector rotation by phi
            diff = wrap_angle(pose_angles(rot) - theta - phi)
            assert np.max(np.abs(diff)) <= 1e-12

            scale = rng.uniform(0.5, 2.0)
            got = pose_lengths(xy * scale)
            assert got == pytest.approx(lengths * scale, rel=1e-12)


def savgol_oracle(series, half_width):
    out = np.empty_like(series)
    n = series.size
    for t in range(n):
        lo, hi = max(0, t - half_width), min(n - 1, t + half_width)
        idx = np.arange(lo, hi + 1, dtype=float) - t
        deg = min(2, idx.size - 1)
        a = np.vander(idx, deg + 1, increasing=True)
        coef = np.linalg.solve(a.T @ a, a.T @ series[lo : hi + 1])
        out[t] = coef[0]
    return out


def test_savgol_exactness():
    t = np.arange(300, dtype=float)
    series = 0.3 - 0.02 * t + 0.0005 * t * t
    for hw in (2, 10, 50):
        got = savgol_smooth(series, hw)
        assert np.max(np.abs(got - series)) <= 1e-9
    rng = make_rng(1003)
    noisy = rng.normal(0.0, 1.0, size=300)
    for hw in (2, 10, 50):
        got = savgol_smooth(noisy, hw)
        assert np.max(np.abs(got - savgol_oracle(noisy, hw))) <= 1e-10


def toy_raw_lengths():
    return np.array([[2.0, 1.0], [2.0, 1.0]])


def ratio_loss(lengths, table):
    """Sum over limb pairs i < j of (L_i / L_j - table[i, j])^2."""
    i, j = np.triu_indices(len(lengths), 1)
    rr = lengths[i] / lengths[j] - table[i, j]
    return float(rr @ rr)


def test_limb_solver():
    # ratio-consistent constant input is a fixed point
    rng = make_rng(1004)
    true_lengths = rng.uniform(20.0, 80.0, size=12)
    raw = np.tile(true_lengths, (8, 1))
    table = true_lengths[:, None] / true_lengths[None, :]
    result = optimize_limb_lengths(raw, table)
    assert ratio_loss(result.lengths, table) <= 1e-12

    # two-limb toy against a grid + simplex-refined oracle, compared inside
    # the solver's scale gauge (product of lengths fixed)
    raw_toy = toy_raw_lengths()
    r = np.array([[1.0, 3.0], [1.0 / 3.0, 1.0]])
    got = optimize_limb_lengths(raw_toy, r)
    assert got.converged

    def objective(v):
        return ratio_loss(np.abs(v), r)

    grid = np.linspace(0.1, 4.0, 16)
    best, best_val = None, np.inf
    for a in grid:
        for b in grid:
            val = objective(np.array([a, b]))
            if val < best_val:
                best, best_val = np.array([a, b]), val
    from scipy.optimize import minimize

    refined = minimize(
        objective, best, method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 20000, "maxfev": 20000},
    )
    assert refined.fun <= 1e-12
    oracle = np.abs(refined.x)
    # both solutions sit on the zero-loss scale family c*(3, 1); map the
    # oracle onto the solver's gauge, which keeps L0*L1 = 2
    scale = math.sqrt(2.0 / (oracle[0] * oracle[1]))
    assert np.max(np.abs(oracle * scale - got.lengths)) <= 1e-6


def test_fourier_recovery():
    rng = make_rng(1005)
    # (a0, a1..a8, b1..b8)
    coeffs = np.array([rng.normal()] + [rng.normal(scale=0.5) for _ in range(16)])
    m = np.linspace(0.0, 100.0, 200, endpoint=False)
    theta = eval_fourier(coeffs, m, 100.0)
    got = fit_fourier(m, theta, T=100.0)
    assert abs(got[0] - coeffs[0]) <= 1e-8
    assert np.max(np.abs(got[1:9] - coeffs[1:9])) <= 1e-8
    assert np.max(np.abs(got[9:] - coeffs[9:])) <= 1e-8
    probe = rng.uniform(0.0, 300.0, size=64)
    shifted = eval_fourier(coeffs, probe + 100.0, 100.0)
    assert np.max(np.abs(shifted - eval_fourier(coeffs, probe, 100.0))) <= 1e-12


def test_noise_model_statistics():
    spec = NoiseSpec(jitter_sigma_range=(0.1, 0.1), seed=0)
    rng = make_rng(1006)
    clean_noise = []
    for _ in range(10_000):
        noisy, events = inject_noise_events(np.zeros(100), spec, rng)
        mask = np.ones(100, dtype=bool)
        mask[events.all_frames()] = False
        clean_noise.append(noisy[mask])
    sigma = float(np.std(np.concatenate(clean_noise)))
    assert 0.097 <= sigma <= 0.103

    spec200 = NoiseSpec(outlier_fraction=0.05, seed=0)
    for _ in range(200):
        _, events = inject_noise_events(np.zeros(200), spec200, rng)
        assert len(events.primary) == 10


def test_gradient_check_full_model():
    start = time.perf_counter()
    rng = make_rng(1007)
    model = RefinerModel.init_random(hidden=8, d_att=4, window=20, seed=1007)
    x = rng.uniform(-math.pi, math.pi, size=(3, 20))
    # truth near noisy keeps the loss (and with it the finite-difference
    # roundoff, about eps * loss / h) small enough to resolve 1e-4
    y = x + rng.normal(0.0, 0.3, size=(3, 20))
    loss, grads = batch_gradients(x, y, model)
    worst = 0.0
    for name in parameter_shapes(8, 4):
        param = model.params[name]
        flat = param.ravel()
        gflat = grads[name].ravel()
        for k in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[k]))
            old = flat[k]
            flat[k] = old + h
            up = float(np.mean((refine_batch(x, model) - y) ** 2))
            flat[k] = old - h
            down = float(np.mean((refine_batch(x, model) - y) ** 2))
            flat[k] = old
            fd = (up - down) / (2 * h)
            # 1e-5 scale floor keeps the test meaningful where the true
            # gradient sits at the finite-difference roundoff floor
            rel = abs(gflat[k] - fd) / max(1e-5, abs(gflat[k]), abs(fd))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def desk_scale(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    manifest = generate_dataset(
        root, train_count=20000, test_count=4000, noise=NoiseSpec(seed=0)
    )
    t1 = time.perf_counter()
    model, log = train_model(manifest, TrainConfig(max_epochs=4, seed=0))
    t2 = time.perf_counter()
    return manifest, model, log, t1 - t0, t2 - t1


def test_desk_scale_end_to_end(desk_scale):
    manifest, model, log, gen_s, train_s = desk_scale
    assert train_s <= 1800.0  # 30-minute CPU budget

    joints, truth, noisy = load_split(manifest, "test")
    assert len(truth) == 4000
    # scored in float32, the precision refine runs the network in
    pred = np.concatenate(
        [
            refine_batch(noisy[i : i + 256], model, dtype=np.float32)
            for i in range(0, len(noisy), 256)
        ]
    )
    noisy_mse = float(np.mean(wrap_angle(noisy - truth) ** 2))
    refined_mse = float(np.mean(wrap_angle(pred - truth) ** 2))
    ratio = refined_mse / noisy_mse

    # correction rate per (test window, corrupted frame) event, at tau = 10 deg
    n_events = n_corrected = 0
    for i in range(len(noisy)):
        events = record_events(manifest, "test", i)
        report = evaluate_metrics(
            pred[i][:, None],
            truth[i][:, None],
            {int(f): None for f in events.all_frames()},
        )
        n_events += report.n_erroneous
        n_corrected += report.n_corrected
    rate = n_corrected / n_events

    # regression bounds frozen after the first successful run with this
    # exact seed pair (dataset seed 0, training seed 0, 4 epochs), which
    # measured ratio 0.0914 and correction rate 0.9558
    assert ratio <= 0.25
    assert rate >= 0.90


def test_window_merge():
    rng = make_rng(1008)

    # idempotence when every window agrees
    series = rng.uniform(-1.0, 1.0, size=(30, 2))
    starts = plan_windows(30, 12)
    stack = np.stack([series[s : s + 12] for s in starts])
    assert np.array_equal(stitch_windows(stack, starts), series)

    # hand-computed two-window overlap: the centres sit at 5 and 7, so
    # frame 6 is one frame from each and the earlier window wins the tie
    starts2 = plan_windows(13, 11)
    assert starts2 == [0, 2]
    windows = np.zeros((2, 11, 1))
    windows[0, 5:7, 0] = (0.2, 0.25)
    windows[1, 5, 0] = 0.3
    got = stitch_windows(windows, starts2)[:, 0]
    assert got[5] == 0.2 and got[6] == 0.25 and got[7] == 0.3

    # every stitched value is one of the covering windows' values
    for _ in range(25):
        n = int(rng.integers(8, 40))
        length = int(rng.integers(2, n + 1))
        starts3 = plan_windows(n, length)
        stack3 = rng.uniform(-5.0, 5.0, size=(len(starts3), length, 1))
        out = stitch_windows(stack3, starts3)
        for frame in range(n):
            cover = [
                stack3[w, frame - s, 0]
                for w, s in enumerate(starts3)
                if s <= frame < s + length
            ]
            assert out[frame, 0] in cover


def test_cli_determinism(tmp_path):
    synth_flags = [
        "--train-count", "96", "--test-count", "32",
        "--window", "20", "--stride", "5",
        "--frames-per-cycle", "25", "--cycles", "2",
        "--records-per-shard", "64", "--seed", "7",
    ]
    train_flags = [
        "--hidden", "4", "--d-att", "3",
        "--epochs", "2", "--batch", "32", "--seed", "7",
    ]
    rng = make_rng(1009)
    kp_path = tmp_path / "input.json"
    write_keypoints(smooth_sequence(rng, 40), kp_path)

    outputs = []
    for tag in ("a", "b"):
        corpus = tmp_path / f"corpus_{tag}"
        model = tmp_path / f"model_{tag}.jarm"
        refined = tmp_path / f"refined_{tag}.json"
        assert cli_main(["synth", "--out", str(corpus)] + synth_flags) == 0
        assert cli_main(
            ["train", "--manifest", str(corpus / "manifest.json"), "--out", str(model)]
            + train_flags
        ) == 0
        assert cli_main(
            ["refine", "--input", str(kp_path), "--model", str(model),
             "--output", str(refined)]
        ) == 0
        manifest_doc = json.loads((corpus / "manifest.json").read_text())
        shard_bytes = b"".join(
            (corpus / entry["name"]).read_bytes()
            for split in ("train", "test")
            for entry in manifest_doc["shards"][split]
        )
        outputs.append(
            (
                (corpus / "manifest.json").read_bytes(),
                shard_bytes,
                model.read_bytes(),
                refined.read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_pipeline_contract(tmp_path):
    rng = make_rng(1010)
    seq = smooth_sequence(rng, 80)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    model_path = tmp_path / "ident.jarm"
    write_keypoints(seq, src)
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=30), model_path)
    motion = refine_keypoint_file(
        src, model_path, dst, PipelineConfig()
    )
    assert motion.n_frames == seq.n_frames
    back = parse_keypoints(dst)  # output satisfies the keypoint schema
    assert back.n_frames == seq.n_frames
    assert np.max(np.abs(back.xy - seq.xy)) <= 1e-6
