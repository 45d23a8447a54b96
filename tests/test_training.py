import math
import pickle

import numpy as np
import pytest

from vconlab.compression import BinaryQuant, PruneUnstructuredLayer, compress_network
from vconlab.model import init_params
from vconlab.tensor import Tensor
from vconlab.training import (
    Constant,
    Cosine,
    Dataset,
    DataError,
    Optimizer,
    OptimizerSpec,
    RunLog,
    TrainConfig,
    TrainingDiverged,
    batch_order,
    evaluate,
    load_csv,
    lr_at,
    make_synthetic,
    q_steps_from_epochs,
    read_runlog,
    steps_per_epoch,
    train,
    write_runlog,
)
from vconlab.vcon import BetaScheduler, wrap_network


def _param(value, grad=None):
    p = Tensor(np.array(value, dtype=float), requires_grad=True)
    if grad is not None:
        p.grad = np.array(grad, dtype=float)
    return p


# --------------------------------------------------------------------------
# Optimizers


def test_sgd_exact_update():
    p = _param([1.0], grad=[2.0])
    Optimizer(OptimizerSpec(kind="sgd", lr=0.1)).step([("p", p)])
    assert p.data[0] == 1.0 - 0.1 * 2.0


def test_adam_first_step_closed_form():
    # m_hat = g, v_hat = g^2 on step one, so the move is -lr * g/(|g| + eps)
    lr, eps, c = 0.05, 1e-8, 3.7
    p = _param([2.0], grad=[c])
    Optimizer(OptimizerSpec(kind="adam", lr=lr, eps=eps)).step([("p", p)])
    expected = 2.0 - lr * c / (c + eps)
    assert p.data[0] == expected
    assert abs((2.0 - p.data[0]) - lr) <= lr * 1e-6  # ~ -lr regardless of c


def test_zero_gradient_leaves_params_unchanged():
    for kind in ("sgd", "adam"):
        p = _param([1.5], grad=[0.0])
        Optimizer(OptimizerSpec(kind=kind, lr=0.3)).step([("p", p)])
        assert p.data[0] == 1.5


def test_none_gradient_skipped():
    for kind in ("sgd", "adam"):
        p = _param([1.5])  # grad stays None
        opt = Optimizer(OptimizerSpec(kind=kind, lr=0.3))
        opt.step([("p", p)])
        assert p.data[0] == 1.5
        assert opt.step_count == 1


def test_adam_state_keyed_by_name_survives_tensor_swap():
    spec = OptimizerSpec(kind="adam", lr=0.1)
    b1, b2, eps = spec.beta1, spec.beta2, spec.eps
    g = 0.5

    opt = Optimizer(spec)
    p = _param([1.0], grad=[g])
    opt.step([("w", p)])
    # swap in a brand-new tensor under the same name (the post-shot move)
    q = _param(p.data.copy(), grad=[g])
    opt.step([("w", q)])

    # reference: two textbook Adam steps with persistent moments
    ref, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= 0.1 * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert abs(q.data[0] - ref) <= 1e-15


def test_optimizer_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(kind="rmsprop")
    with pytest.raises(ValueError):
        OptimizerSpec(lr=0.0)
    with pytest.raises(ValueError):
        Cosine(warmup_ratio=1.0)
    with pytest.raises(ValueError, match="total_steps"):
        Cosine(total_steps=0)
    for bad in ({"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"eps": 0.0}, {"eps": -1e-8}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptimizerSpec(**bad)
    OptimizerSpec(beta1=0.0, beta2=0.0, schedule=Cosine(total_steps=1))  # the edges that are allowed


# --------------------------------------------------------------------------
# Learning-rate schedule


def test_lr_constant():
    spec = OptimizerSpec(lr=0.25, schedule=Constant())
    assert [lr_at(s, spec) for s in (0, 7, 10**6)] == [0.25] * 3


def test_lr_cosine_boundaries():
    spec = OptimizerSpec(lr=0.2, schedule=Cosine(total_steps=100, warmup_ratio=0.1))
    assert lr_at(0, spec) == 0.0  # warmup_start_lr default
    assert lr_at(5, spec) == 0.2 * 0.5  # halfway through 10 warmup steps
    assert lr_at(10, spec) == 0.2  # end of warmup lands exactly on lr
    assert abs(lr_at(100, spec)) <= 1e-12 * 0.2  # cos(pi) = -1
    assert lr_at(10**9, spec) == lr_at(100, spec)  # clamped past the end


def test_lr_cosine_no_warmup_starts_at_lr():
    spec = OptimizerSpec(lr=0.3, schedule=Cosine(total_steps=50))
    assert lr_at(0, spec) == 0.3


def test_lr_cosine_nonincreasing_after_warmup():
    spec = OptimizerSpec(lr=1.0, schedule=Cosine(total_steps=200, warmup_ratio=0.05))
    values = [lr_at(s, spec) for s in range(10, 201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_cosine_unresolved_total_raises():
    spec = OptimizerSpec(lr=0.1, schedule=Cosine())
    with pytest.raises(ValueError, match="total_steps"):
        lr_at(0, spec)


# --------------------------------------------------------------------------
# Step bookkeeping


def test_steps_per_epoch_is_ceil():
    assert steps_per_epoch(10, 3) == 4
    assert steps_per_epoch(9, 3) == 3
    assert steps_per_epoch(1, 128) == 1


def test_reference_config_step_counts():
    # 50000-example train set at batch 128, the usual image-benchmark shape
    assert steps_per_epoch(50000, 128) == 391
    for epochs, q in [(4, 1564), (12, 4692), (25, 9775), (40, 15640)]:
        assert q_steps_from_epochs(epochs, 50000, 128) == q


def test_batch_order_is_seed_epoch_function():
    a = batch_order(7, 3, 50)
    assert np.array_equal(a, batch_order(7, 3, 50))
    assert not np.array_equal(a, batch_order(7, 4, 50))
    assert not np.array_equal(a, batch_order(8, 3, 50))
    assert np.array_equal(np.sort(a), np.arange(50))


# --------------------------------------------------------------------------
# Datasets


def test_synthetic_shapes_and_split_sizes():
    ds = make_synthetic("spiral", classes=3, samples_per_class=500, seed=0)
    assert ds.features.shape == (1500, 2)
    assert ds.num_classes == 3
    for tag, size in [("train", 1050), ("val", 225), ("test", 225)]:
        x, y = ds.split(tag)
        assert len(x) == len(y) == size


def test_synthetic_deterministic_by_seed():
    a = make_synthetic("blobs", seed=11, samples_per_class=40)
    b = make_synthetic("blobs", seed=11, samples_per_class=40)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = make_synthetic("blobs", seed=12, samples_per_class=40)
    assert not np.array_equal(a.features, c.features)


def test_blobs_noise_zero_nearest_centroid_is_perfect():
    ds = make_synthetic("blobs", classes=4, samples_per_class=50, noise=0.0, seed=2)
    x_tr, y_tr = ds.split("train")
    centroids = np.stack([x_tr[y_tr == c].mean(axis=0) for c in range(4)])
    dist = np.linalg.norm(ds.features[:, None, :] - centroids[None], axis=2)
    assert (dist.argmin(axis=1) == ds.labels).all()


def test_spiral_arm_geometry():
    ds = make_synthetic("spiral", classes=2, samples_per_class=100, noise=0.0, seed=3)
    radii = np.linalg.norm(ds.features, axis=1)
    assert radii.max() <= 1.0 + 1e-12
    assert radii.min() > 0.0
    assert set(np.unique(ds.labels)) == {0, 1}


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_synthetic("moons")
    with pytest.raises(ValueError):
        make_synthetic("blobs", classes=1)
    with pytest.raises(ValueError):
        make_synthetic("blobs", noise=-0.1)


def _write_csv(path, text):
    path.write_text(text)
    return path


def test_load_csv_roundtrip_unstandardized(tmp_path):
    rows = ["f0,f1,label"] + [f"{i}.5,{-i}.25,{i % 3}" for i in range(10)]
    p = _write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
    ds = load_csv(p, standardize=False)
    assert ds.features.shape == (10, 2)
    assert ds.features[4, 0] == 4.5
    assert ds.features[4, 1] == -4.25
    assert ds.labels[4] == 1
    assert (ds.split_tags == "train").sum() == 7  # floor(0.7 * 10)


def test_load_csv_standardizes_on_train_split_only(tmp_path):
    rows = ["f0,f1,label"] + [f"{float(i)},5.0,0" for i in range(10)]
    ds = load_csv(_write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n"))
    x_tr, _ = ds.split("train")
    assert abs(x_tr[:, 0].mean()) <= 1e-12
    assert abs(x_tr[:, 0].std() - 1.0) <= 1e-12
    # constant column guarded against divide-by-zero
    assert np.array_equal(ds.features[:, 1], np.zeros(10))


def test_load_csv_missing_header(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "a,b,c\n1,2,0\n")
    with pytest.raises(DataError, match=r"d\.csv:1: expected a header"):
        load_csv(p)


def test_load_csv_malformed_row_reports_line(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "f0,label\n1.0,0\noops,1\n")
    with pytest.raises(DataError, match=r"d\.csv:3: malformed numeric"):
        load_csv(p)
    for cell in ("nan", "inf", "-inf", "1e999"):
        p = _write_csv(tmp_path / "d.csv", f"f0,f1,label\n1.0,2.0,0\n0.5,{cell},1\n")
        with pytest.raises(DataError, match=r"d\.csv:3: non-finite feature value"):
            load_csv(p)


def test_load_csv_wrong_cell_count(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "f0,label\n1.0,0,9\n")
    with pytest.raises(DataError, match=r"d\.csv:2: expected 2 cells, got 3"):
        load_csv(p)


def test_load_csv_bad_label_is_index_error(tmp_path):
    p = _write_csv(tmp_path / "d.csv", "f0,label\n1.0,1.5\n")
    with pytest.raises(IndexError, match=r"d\.csv:2: label '1.5'"):
        load_csv(p)
    p2 = _write_csv(tmp_path / "e.csv", "f0,label\n1.0,-1\n")
    with pytest.raises(IndexError, match="not a valid class index"):
        load_csv(p2)
    # not finite, or beyond int64
    for label in ("nan", "inf", "-inf", "1e30", "9223372036854775808"):
        p3 = _write_csv(tmp_path / "f.csv", f"f0,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(IndexError, match=rf"f\.csv:3: label '{label}' is not a valid class index"):
            load_csv(p3)


def test_load_csv_empty_and_headless(tmp_path):
    with pytest.raises(DataError, match="empty file"):
        load_csv(_write_csv(tmp_path / "d.csv", ""))
    with pytest.raises(DataError, match="no data rows"):
        load_csv(_write_csv(tmp_path / "e.csv", "f0,label\n"))


# --------------------------------------------------------------------------
# Run logs


def test_runlog_roundtrip_exact(tmp_path):
    log = RunLog(
        steps=[(0, 1.0, 0.1, 0.6931471805599453), (1, 0.75, 0.0999, 1e-17)],
        epochs=[(1, 0.9533333333333334)],
    )
    write_runlog(log, tmp_path / "s.csv", tmp_path / "e.csv")
    back = read_runlog(tmp_path / "s.csv", tmp_path / "e.csv")
    assert back == log  # repr round-trips floats exactly


def test_runlog_header_validated(tmp_path):
    (tmp_path / "s.csv").write_text("a,b\n")
    (tmp_path / "e.csv").write_text("epoch,val_accuracy\n")
    with pytest.raises(DataError, match="missing step header"):
        read_runlog(tmp_path / "s.csv", tmp_path / "e.csv")


# --------------------------------------------------------------------------
# The loop


def _blobs(noise=0.0, per_class=100, classes=3, seed=0):
    return make_synthetic("blobs", classes=classes, samples_per_class=per_class, noise=noise, seed=seed)


def test_dense_training_solves_clean_blobs():
    ds = _blobs(noise=0.0)
    net = init_params([2, 16, 3], seed=1)
    cfg = TrainConfig(epochs=30, batch_size=32, seed=1, optimizer=OptimizerSpec(kind="adam", lr=0.01))
    _, log = train(net, ds, cfg)
    assert log.epochs[-1][1] >= 0.99


def test_loss_decreases_under_full_batch_sgd():
    for seed in range(5):
        ds = _blobs(noise=0.3, per_class=40, seed=seed)
        n_train = len(ds.split("train")[1])
        net = init_params([2, 16, 3], seed=seed)
        cfg = TrainConfig(
            epochs=10,
            batch_size=n_train,  # full batch: the same fixed batch every step
            seed=seed,
            optimizer=OptimizerSpec(kind="sgd", lr=0.01),
        )
        _, log = train(net, ds, cfg)
        losses = [s[3] for s in log.steps]
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:])), f"seed {seed}: {losses}"


def test_training_is_bit_deterministic():
    def run():
        ds = _blobs(noise=0.2, per_class=30)
        net = wrap_network(init_params([2, 8, 3], seed=4), PruneUnstructuredLayer(0.5), BetaScheduler(q=10))
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
        return train(net, ds, cfg)

    net_a, log_a = run()
    net_b, log_b = run()
    assert log_a == log_b
    for (na, pa), (nb, pb) in zip(net_a.named_parameters(), net_b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_runlog_steps_strictly_increasing_and_epochs_labeled():
    ds = _blobs(per_class=20)
    net = init_params([2, 4, 3], seed=5)
    _, log = train(net, ds, TrainConfig(epochs=3, batch_size=16, seed=5))
    steps = [s[0] for s in log.steps]
    assert steps == list(range(len(steps)))
    assert [e[0] for e in log.epochs] == [1, 2, 3]


def test_beta_column_conventions():
    ds = _blobs(noise=0.2, per_class=20)  # 42 train rows, batch 16 -> 3 steps/epoch
    spe = steps_per_epoch(len(ds.split("train")[1]), 16)

    net = init_params([2, 4, 3], seed=6)
    _, dense_log = train(net, ds, TrainConfig(epochs=2, batch_size=16, seed=6))
    assert {s[1] for s in dense_log.steps} == {1.0}

    ste = compress_network(init_params([2, 4, 3], seed=6), PruneUnstructuredLayer(0.5))
    _, ste_log = train(ste, ds, TrainConfig(epochs=2, batch_size=16, seed=6))
    assert {s[1] for s in ste_log.steps} == {0.0}

    q = spe  # one-epoch transition
    wrapped = wrap_network(init_params([2, 4, 3], seed=6), PruneUnstructuredLayer(0.5), BetaScheduler(q=q))
    _, vlog = train(wrapped, ds, TrainConfig(epochs=2, batch_size=16, seed=6))
    betas = [s[1] for s in vlog.steps]
    assert betas[0] == 1.0  # first forward happens before any scheduler tick
    assert all(a >= b for a, b in zip(betas, betas[1:]))
    assert all(b == 0.0 for b in betas[q:])


def test_vcon_q_zero_is_bit_identical_to_ste():
    ds = _blobs(noise=0.2, per_class=50)
    spec = PruneUnstructuredLayer(0.8)

    ste = compress_network(init_params([2, 8, 3], seed=7), spec)
    _, ste_log = train(ste, ds, TrainConfig(epochs=3, batch_size=32, seed=7))

    wrapped = wrap_network(init_params([2, 8, 3], seed=7), spec, BetaScheduler(q=0))
    _, vcon_log = train(wrapped, ds, TrainConfig(epochs=3, batch_size=32, seed=7))

    assert ste_log == vcon_log  # losses, lrs, betas, accuracies: all bit-equal
    for (_, p_ste), (_, p_v) in zip(
        ste.named_parameters(),
        [(n, p) for n, p in wrapped.named_parameters() if "branch" in n],
    ):
        assert np.array_equal(p_ste.data, p_v.data)


def test_dead_originals_stay_frozen_after_transition():
    # once beta reaches 0 the originals leave the graph; their last gradient
    # must not keep driving Adam, so their bytes stay at the step-q values
    ds = _blobs(noise=0.2, per_class=20)
    q = steps_per_epoch(len(ds.split("train")[1]), 16)

    def originals_after(epochs):
        net = wrap_network(init_params([2, 8, 3], seed=4), PruneUnstructuredLayer(0.5), BetaScheduler(q=q))
        train(net, ds, TrainConfig(epochs=epochs, batch_size=16, seed=4))
        return [p.data.tobytes() for n, p in net.named_parameters() if n.split(".")[2] == "original"]

    at_q = originals_after(1)  # the first epoch is exactly the transition
    for epochs in (2, 3, 4):
        assert originals_after(epochs) == at_q


def test_post_shot_sparsity_zero_matches_dense_trajectory():
    ds = _blobs(noise=0.2, per_class=30)
    cfg_kwargs = dict(epochs=2, batch_size=16, seed=8)

    dense = init_params([2, 8, 3], seed=8)
    _, dense_log = train(dense, ds, TrainConfig(**cfg_kwargs))

    ps = init_params([2, 8, 3], seed=8)
    cfg = TrainConfig(
        **cfg_kwargs, q_steps=4, post_shot_spec=PruneUnstructuredLayer(0.0)
    )
    _, ps_log = train(ps, ds, cfg)

    # all-ones masks: identical losses and accuracies, only the beta column
    # records the switch
    assert [s[3] for s in ps_log.steps] == [s[3] for s in dense_log.steps]
    assert [s[2] for s in ps_log.steps] == [s[2] for s in dense_log.steps]
    assert ps_log.epochs == dense_log.epochs
    betas = [s[1] for s in ps_log.steps]
    assert betas[:4] == [1.0] * 4
    assert set(betas[4:]) == {0.0}
    for (_, pd), (_, pp) in zip(dense.named_parameters(), ps.named_parameters()):
        assert np.array_equal(pd.data, pp.data)


def test_post_shot_actually_compresses_after_switch():
    ds = _blobs(noise=0.2, per_class=30)
    net = init_params([2, 8, 3], seed=9)
    cfg = TrainConfig(
        epochs=2, batch_size=16, seed=9, q_steps=3,
        post_shot_spec=PruneUnstructuredLayer(0.5),
    )
    train(net, ds, cfg)
    from vconlab.compression import CompressedBlock

    assert all(isinstance(b, CompressedBlock) for b in net.blocks)
    for b in net.blocks:
        assert (b.mask == 0).sum() == math.floor(0.5 * b.mask.size)


def test_freeze_mask_keeps_initial_mask_through_training():
    ds = _blobs(noise=0.2, per_class=30)
    net = compress_network(init_params([2, 8, 3], seed=10), PruneUnstructuredLayer(0.5))
    before = [b.mask.copy() for b in net.blocks]
    cfg = TrainConfig(
        epochs=2, batch_size=16, seed=10, freeze_mask=True,
        optimizer=OptimizerSpec(kind="sgd", lr=0.5),  # big steps so ranks would move
    )
    train(net, ds, cfg)
    for b, m in zip(net.blocks, before):
        assert np.array_equal(b.mask, m)


def test_post_shot_spec_needs_an_all_dense_network():
    ds = _blobs(per_class=20)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0, post_shot_spec=BinaryQuant())
    for net in (
        compress_network(init_params([2, 4, 3], seed=11), BinaryQuant()),
        wrap_network(init_params([2, 4, 3], seed=11), BinaryQuant(), BetaScheduler(q=3)),
    ):
        with pytest.raises(ValueError, match="post_shot_spec needs an all-dense network"):
            train(net, ds, cfg)


def test_divergence_reports_step_lr_beta():
    ds = _blobs(per_class=20)
    net = init_params([2, 4, 3], seed=12)
    net.blocks[0].weight.data[0, 0] = float("nan")
    cfg = TrainConfig(epochs=1, batch_size=16, seed=12, optimizer=OptimizerSpec(kind="sgd", lr=0.01))
    with pytest.raises(TrainingDiverged, match=r"diverged at step 0 \(lr=0\.01, beta=1\)") as exc:
        train(net, ds, cfg)
    assert (exc.value.step, exc.value.lr, exc.value.beta) == (0, 0.01, 1.0)


def test_divergence_survives_pickling():
    # a diverged run in a worker process reaches the command as this exception
    err = pickle.loads(pickle.dumps(TrainingDiverged(3, 0.01, 0.5)))
    assert type(err) is TrainingDiverged
    assert str(err) == "training diverged at step 3 (lr=0.01, beta=0.5)"
    assert (err.step, err.lr, err.beta) == (3, 0.01, 0.5)


def test_logged_lr_follows_cosine_schedule():
    ds = _blobs(noise=0.2, per_class=30)  # 63 train rows -> 4 steps/epoch at batch 16
    net = init_params([2, 4, 3], seed=13)
    opt = OptimizerSpec(kind="adam", lr=0.02, schedule=Cosine(warmup_ratio=0.25))
    cfg = TrainConfig(epochs=3, batch_size=16, seed=13, optimizer=opt)
    _, log = train(net, ds, cfg)
    total = len(log.steps)
    resolved = OptimizerSpec(kind="adam", lr=0.02, schedule=Cosine(total_steps=total, warmup_ratio=0.25))
    assert [s[2] for s in log.steps] == [lr_at(i, resolved) for i in range(total)]


def test_evaluate_compressed_only_uses_branch():
    ds = _blobs(noise=0.2, per_class=30)
    x_val, y_val = ds.split("val")
    wrapped = wrap_network(init_params([2, 8, 3], seed=14), BinaryQuant(), BetaScheduler(q=10, t=5))
    acc_branch = evaluate(wrapped, x_val, y_val, compressed_only=True)
    logits = wrapped.forward_compressed(Tensor(x_val)).data
    assert acc_branch == float((logits.argmax(axis=1) == y_val).mean())


def test_evaluate_empty_split_is_nan():
    ds = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), np.array(["train", "train"], dtype="<U5"))
    net = init_params([2, 2], seed=15)
    assert math.isnan(evaluate(net, *ds.split("val")))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="q_steps"):
        TrainConfig(epochs=1, batch_size=1, seed=0, q_steps=-1)
