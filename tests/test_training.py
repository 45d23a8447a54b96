import gc
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from vconlab import training
from vconlab.cli import read_sweep_csv
from vconlab.compression import BinaryQuant, PruneUnstructuredLayer, compress_network
from vconlab.model import Network, init_params, stack_networks
from vconlab.tensor import Tensor, backward, softmax_cross_entropy
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
from vconlab.vcon import BetaScheduler, compressed_blocks, wrap_network

from oracles import PerTensorOptimizer
from test_families import SAMPLES, SIZES


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


def _draw(rng, shape):
    # values with exact and negative zeros mixed in, so signed zeros reach the update
    out = rng.standard_normal(shape)
    out[rng.uniform(size=shape) < 0.2] = 0.0
    out[rng.uniform(size=shape) < 0.2] = -0.0
    return out


# the live set per step: name -> shape, with None for a parameter whose grad is
# None; "a*" re-binds "a" to a new tensor (the post-shot move), and "c" changes
# shape under one name
_LIVE_SETS = [
    {"a": (3, 4), "b": (5,), "c": (2, 2)},
    {"a": (3, 4), "b": None, "c": (2, 2)},
    {"a": (3, 4), "b": None, "c": (2, 2)},
    {"a": (3, 4), "b": (5,), "c": (2, 2)},
    {"a*": (3, 4), "b": (5,), "c": (2, 2)},
    {"a": (3, 4), "b": (5,), "c": (4,)},
    {"a": None, "b": (5,), "c": (4,), "d": (1,)},
    {"a": (3, 4), "b": (5,), "c": (2, 2), "d": (1,)},
    {"a": (3, 4), "b": (5,), "c": (2, 2), "d": (1,)},
]


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("schedule", [Constant(), Cosine(total_steps=len(_LIVE_SETS), warmup_ratio=0.25)],
                         ids=["constant", "cosine"])
def test_flat_optimizer_matches_per_tensor_loop_bit_for_bit(kind, schedule):
    # under chunks that cut the live sets across chunks and cut "a" (3 x 4)
    # into single rows (5, 7) or single entries (1), and under the default,
    # which holds each live set in one chunk
    for chunk in (1, 5, 7, Optimizer.chunk):
        rng = np.random.default_rng(0)
        spec = OptimizerSpec(kind=kind, lr=0.05, schedule=schedule)
        opt, ref = Optimizer(spec), PerTensorOptimizer(kind, spec.beta1, spec.beta2, spec.eps)
        opt.chunk = chunk
        params: dict[str, Tensor] = {}
        for step, live in enumerate(_LIVE_SETS):
            named = []
            for key, shape in live.items():
                name = key.rstrip("*")
                p = params.get(name)
                if p is None or key.endswith("*") or (shape is not None and p.data.shape != shape):
                    p = params[name] = _param(_draw(rng, shape))
                p.grad = None if shape is None else _draw(rng, shape)
                named.append((name, p))
            twins = [(name, p.data.copy(), p.grad) for name, p in named]
            lr = lr_at(step, spec)
            assert opt.step(named) == lr
            ref.step(twins, lr)
            for (name, p), (_, data, _) in zip(named, twins):
                assert p.data.tobytes() == data.tobytes(), (chunk, step, name)
            if kind == "adam":
                assert opt._state.keys() == ref.state.keys()
                for name, (m, v) in opt._state.items():
                    assert m.tobytes() == ref.state[name]["m"].tobytes(), (chunk, step, name)
                    assert v.tobytes() == ref.state[name]["v"].tobytes(), (chunk, step, name)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_takes_gradients_of_any_layout_to_the_same_bytes(kind):
    # the engine hands C-ordered gradients; a Fortran-ordered or strided one
    # with the same values gives the same parameter and moment bytes
    rng = np.random.default_rng(3)
    shapes = {"a": (5, 7), "b": (3, 7)}
    layouts = {"c": np.ascontiguousarray, "f": np.asfortranarray,
               "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2]}
    start = {name: _draw(rng, shape) for name, shape in shapes.items()}
    runs = {}
    for layout, arrange in layouts.items():
        grads = np.random.default_rng(4)
        opt = Optimizer(OptimizerSpec(kind=kind, lr=0.05))
        params = {name: _param(value) for name, value in start.items()}
        for _ in range(3):
            for name, p in params.items():
                p.grad = arrange(_draw(grads, shapes[name]))
                assert p.grad.flags.c_contiguous == (layout == "c")
            opt.step(list(params.items()))
        moments = [m.tobytes() + v.tobytes() for m, v in opt._state.values()]
        runs[layout] = ([p.data.tobytes() for p in params.values()], moments)
    assert runs["f"] == runs["c"] and runs["strided"] == runs["c"]


# 3 cuts each row of 7 into slices, 14 the 5 x 7 array into blocks of two rows
@pytest.mark.parametrize("chunk", [3, 14, Optimizer.chunk])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_updates_parameters_of_any_layout_in_place_to_the_same_bytes(kind, chunk):
    # a Fortran-ordered, transposed or strided parameter array is updated in
    # place, to the bytes a C-ordered one takes; a copy made by reshape would
    # leave the parameter as it was
    rng = np.random.default_rng(5)
    start, grads = _draw(rng, (5, 7)), [_draw(rng, (5, 7)) for _ in range(3)]
    layouts = {"c": np.ascontiguousarray, "f": np.asfortranarray, "transposed": lambda a: a.T.copy().T,
               "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2]}
    runs = {}
    for layout, arrange in layouts.items():
        opt = Optimizer(OptimizerSpec(kind=kind, lr=0.05))
        opt.chunk = chunk
        p = _param(0.0)
        p.data = data = arrange(start.copy())
        assert data.flags.c_contiguous == (layout == "c")
        for g in grads:
            p.grad = g
            opt.step([("p", p)])
        assert p.data is data
        runs[layout] = data.tobytes(order="C")
    assert all(run == runs["c"] for run in runs.values())
    assert runs["c"] != np.ascontiguousarray(start).tobytes()


def test_moments_of_a_parameter_that_leaves_free_the_old_layout():
    # once "b" leaves, its moments are copied out and the old layout's flat m
    # and v are freed; the copies carry on where they left off when it returns
    opt, ref = Optimizer(OptimizerSpec(kind="adam", lr=0.05)), PerTensorOptimizer("adam")
    a, b = _param([1.0, 2.0], grad=[0.5, -0.5]), _param([[3.0], [4.0]])
    named, twins = [("a", a), ("b", b)], {"a": a.data.copy(), "b": b.data.copy()}
    for b_live in (True, False, True):
        b.grad = np.array([[0.25], [1.0]]) if b_live else None
        if not b_live:
            flats = [weakref.ref(moment.base) for moment in opt._state["a"] + opt._state["b"]]
            assert all(flat() is not None for flat in flats)
        opt.step(named)
        ref.step([(name, twins[name], p.grad) for name, p in named], opt.spec.lr)
        if not b_live:
            assert all(flat() is None for flat in flats)
    assert a.data.tobytes() == twins["a"].tobytes() and b.data.tobytes() == twins["b"].tobytes()


def _wide_vcon(seed=0):
    # the benchmark's wide shape mid-transition: both branches live, 134,662 entries
    return wrap_network(init_params([2, 256, 256, 3], seed=seed), PruneUnstructuredLayer(0.95), BetaScheduler(q=100))


def test_wide_training_gives_the_same_bytes_under_any_chunk(monkeypatch):
    # four steps of a layout cut into many chunks give the bytes of one chunk
    # holding it all, as one flat buffer per step did
    ds = _blobs(noise=0.2, per_class=40)  # 84 training rows: four steps of 21
    runs, chunks = {}, []
    step = training.Optimizer.step

    def counting(self, named_params):
        lr = step(self, named_params)
        chunks.append(len(self._chunks))
        return lr

    monkeypatch.setattr(training.Optimizer, "step", counting)
    for chunk in (Optimizer.chunk, 10**9):
        monkeypatch.setattr(training.Optimizer, "chunk", chunk)
        net, log = train(_wide_vcon(), ds, TrainConfig(epochs=1, batch_size=21, seed=0))
        runs[chunk] = ([p.data.tobytes() for _, p in net.named_parameters()], log.steps, log.epochs)
    assert min(chunks[:4]) > 1 and chunks[4:] == [1] * 4
    assert runs[Optimizer.chunk] == runs[10**9]


def test_optimizer_keeps_only_moments_and_two_chunks_of_scratch():
    # after the first step on the wide layout the optimizer holds m, v and two
    # scratch buffers of at most a chunk each, not flat copies of every gradient
    net = _wide_vcon()
    x, y = _blobs(noise=0.2, per_class=10).split("train")
    backward(softmax_cross_entropy(net.forward(Tensor(x)), y))
    params = net.named_parameters()
    live = sum(p.data.size for _, p in params if p.grad is not None)
    assert live == 134_662
    opt = Optimizer(OptimizerSpec(kind="adam", lr=0.01))
    tracemalloc.start()
    try:
        opt.step(params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * 8 * live + 2 * 8 * Optimizer.chunk + 32 * 1024, held


def test_train_releases_each_steps_gradients_once_applied(monkeypatch):
    # every gradient is None again when the refresh after each update runs,
    # and when train returns; the first step sees no gradient left from before
    net = _wide_vcon()
    x, y = _blobs(noise=0.2, per_class=10).split("train")
    backward(softmax_cross_entropy(net.forward(Tensor(x)), y))
    refresh, seen = training.refresh_network, []

    def noting_the_gradients(net, refresh_masks=True):
        seen.append(sum(p.grad is not None for _, p in net.named_parameters()))
        return refresh(net, refresh_masks)

    monkeypatch.setattr(training, "refresh_network", noting_the_gradients)
    train(net, _blobs(noise=0.2, per_class=20), TrainConfig(epochs=2, batch_size=21, seed=0))
    assert seen == [0] * 5
    assert all(p.grad is None for _, p in net.named_parameters())


def test_every_live_gradient_is_c_ordered_in_each_phase(monkeypatch):
    # the optimizer's gather is a contiguous copy only for C-ordered gradients;
    # a dense step, then each family's ste_standard, mid-transition vcon and
    # post-switch post_shot steps (two steps each, the second in that phase)
    from vconlab import training

    ds = _blobs(noise=0.2, per_class=20)  # 42 training rows: two steps of 21
    cfg = dict(epochs=1, batch_size=21, seed=5)
    seen = []
    real = training.Optimizer.step

    def checked(self, named_params):
        live = [(name, p.grad) for name, p in named_params if p.grad is not None]
        assert live
        seen.append([name for name, g in live if not g.flags.c_contiguous])
        return real(self, named_params)

    monkeypatch.setattr(training.Optimizer, "step", checked)
    runs = [("dense", init_params(SIZES, seed=5), {})]
    for kind, spec in sorted(SAMPLES.items()):
        runs += [
            (f"{kind} ste_standard", compress_network(init_params(SIZES, seed=5), spec), {}),
            (f"{kind} vcon", wrap_network(init_params(SIZES, seed=5), spec, BetaScheduler(q=4)), {}),
            (f"{kind} post_shot", init_params(SIZES, seed=5), dict(q_steps=1, post_shot_spec=spec)),
        ]
    for label, net, extra in runs:
        seen.clear()
        _, log = train(net, ds, TrainConfig(**cfg, **extra))
        assert len(log.steps) == 2
        if label.endswith("vcon"):
            assert 0.0 < log.steps[1][1] < 1.0
        if label.endswith("post_shot"):
            assert log.steps[1][1] == 0.0
        assert seen == [[], []], label


def test_optimizer_counts_a_negative_zero_gradient_as_positive_zero():
    # an SGD step of -0.0 would turn a -0.0 parameter into +0.0; counted as
    # +0.0 the gradient leaves it -0.0, as the zero-filled gradients did
    p = _param([-0.0], grad=[-0.0])
    Optimizer(OptimizerSpec(kind="sgd", lr=0.3)).step([("p", p)])
    assert math.copysign(1.0, p.data[0]) == -1.0


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
    assert set(ds.labels.tolist()) == {0, 1, 2}
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


_TABLES = {  # a well-formed table of two rows for each table a run writes
    "steps": "step,beta,lr,train_loss\n0,1.0,0.1,0.6931471805599453\n1,0.5,0.1,1e-17\n",
    "epochs": "epoch,val_accuracy\n1,0.5\n2,0.9533333333333334\n",
    "sweep": "q,seed,epoch,val_accuracy\n0,0,1,0.5\n0,0,2,nan\n",
}
_FAULTS = {  # a fault in a table's lines, and the line it is reported at
    "wrong_header": (lambda lines: ["x" + lines[0], *lines[1:]], 1),
    "no_header": (lambda lines: lines[1:], 1),
    "short_row": (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0]], 3),
    "long_row": (lambda lines: [*lines[:2], lines[2] + ",0"], 3),
    "unreadable_cell": (lambda lines: [*lines[:2], "1.5" + lines[2][1:]], 3),  # a float in an int column
}


def _read_table_file(table, path, tmp_path):
    """Read ``path`` as ``table`` through the package's own reader."""
    good = {}
    for name in ("steps", "epochs"):
        good[name] = tmp_path / f"good_{name}.csv"
        good[name].write_text(_TABLES[name])
    if table == "steps":
        return read_runlog(path, good["epochs"])
    if table == "epochs":
        return read_runlog(good["steps"], path)
    return read_sweep_csv(path)


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("table", list(_TABLES))
def test_malformed_table_is_a_data_error_at_its_line(tmp_path, table, fault):
    path = tmp_path / "t.csv"
    path.write_text(_TABLES[table])
    _read_table_file(table, path, tmp_path)  # the unedited table reads
    edit, line = _FAULTS[fault]
    path.write_text("\n".join(edit(_TABLES[table].splitlines())) + "\n")
    with pytest.raises(DataError, match=rf"t\.csv:{line}: "):
        _read_table_file(table, path, tmp_path)


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
        assert (b.state == 0).sum() == math.floor(0.5 * b.state.size)


def test_state_is_refreshed_once_per_weight_update(monkeypatch):
    # once before the first step, then once after each optimizer update; the
    # validation pass at an epoch's end sees the last update's state
    from vconlab import training

    ds = _blobs(per_class=30)
    net = compress_network(init_params([2, 8, 3], seed=13), PruneUnstructuredLayer(0.5))
    calls = []
    real = training.refresh_blocks

    def counted(blocks, **kwargs):
        calls.append(len(blocks))
        real(blocks, **kwargs)

    monkeypatch.setattr(training, "refresh_blocks", counted)
    _, log = train(net, ds, TrainConfig(epochs=3, batch_size=16, seed=13))
    assert len(log.steps) == 3 * 4
    assert calls == [2] * (1 + len(log.steps))


def test_freeze_mask_keeps_initial_mask_through_training():
    ds = _blobs(noise=0.2, per_class=30)
    net = compress_network(init_params([2, 8, 3], seed=10), PruneUnstructuredLayer(0.5))
    before = [b.state.copy() for b in net.blocks]
    cfg = TrainConfig(
        epochs=2, batch_size=16, seed=10, freeze_mask=True,
        optimizer=OptimizerSpec(kind="sgd", lr=0.5),  # big steps so ranks would move
    )
    train(net, ds, cfg)
    for b, m in zip(net.blocks, before):
        assert np.array_equal(b.state, m)


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
    logits = Network(compressed_blocks(wrapped)).forward(Tensor(x_val)).data
    assert acc_branch == float((logits.argmax(axis=1) == y_val).mean())


@pytest.mark.parametrize("train_original", [True, False])
def test_evaluate_leaves_every_gradient_and_flag_as_it_found_them(train_original):
    ds = _blobs(noise=0.2, per_class=30)
    x_val, y_val = ds.split("val")
    net = wrap_network(init_params([2, 8, 3], seed=16), PruneUnstructuredLayer(0.5), BetaScheduler(q=10, t=3),
                       train_original=train_original)
    logits = net.forward(Tensor(x_val))
    backward(softmax_cross_entropy(logits, y_val))
    before = [(p.grad, p.requires_grad) for _, p in net.named_parameters()]
    assert any(g is None for g, _ in before) == (not train_original)
    for compressed_only in (False, True):
        evaluate(net, x_val, y_val, compressed_only=compressed_only)
        after = [(p.grad, p.requires_grad) for _, p in net.named_parameters()]
        assert all(g is h and r == s for (g, r), (h, s) in zip(before, after))
    # the graph-free forward is the recorded one's bytes
    assert evaluate(net, x_val, y_val) == float((logits.data.argmax(axis=1) == y_val).mean())


@pytest.mark.parametrize("stacked", [True, False])
def test_train_frees_each_steps_graph_before_the_optimizer_runs(monkeypatch, stacked):
    # a weakref to each step's logits array is dead once Optimizer.step begins,
    # with the cycle collector off: a graph has no reference cycles
    if stacked:  # a stack of two vcon networks, mid-transition through the whole run
        net = wrap_network(stack_networks([init_params([2, 8, 3], seed=s) for s in (0, 1)]),
                           PruneUnstructuredLayer(0.5), BetaScheduler(q=100))
        seed = (0, 1)
    else:
        net, seed = init_params([2, 8, 3], seed=0), 0
    logits_data, dead = [], []
    loss_fn, step = training.softmax_cross_entropy, training.Optimizer.step

    def keeping_a_weakref(logits, labels):
        logits_data.append(weakref.ref(logits.data))
        return loss_fn(logits, labels)

    def noting_the_graph(self, named_params):
        dead.append(logits_data[-1]() is None)
        return step(self, named_params)

    monkeypatch.setattr(training, "softmax_cross_entropy", keeping_a_weakref)
    monkeypatch.setattr(training.Optimizer, "step", noting_the_graph)
    gc.disable()
    try:
        _, log = train(net, _blobs(noise=0.2, per_class=30), TrainConfig(epochs=3, batch_size=16, seed=seed))
    finally:
        gc.enable()
    assert len(dead) == len(log.steps) == 12
    assert all(dead)


def test_evaluate_empty_split_is_nan():
    ds = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), np.array(["train", "train"], dtype="<U5"))
    net = init_params([2, 2], seed=15)
    assert math.isnan(evaluate(net, *ds.split("val")))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="q_steps"):
        TrainConfig(epochs=1, batch_size=1, seed=0, q_steps=-1)
