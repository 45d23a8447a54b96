"""Stack invariance: a member of a stack of networks computes the bytes it
computes alone.

Training stacks each arm's seeds into one network (model.py). That holds
bit for bit only if numpy hands every member of a stacked product, sum or
mask to the same kernels as the member's own 2-D one. The first tests check
that numpy dispatch directly, on every shape the benchmark workloads and the
golden digests use; they assume nothing about the BLAS kernel's own
orientation, so they run on every platform. The rest check it end to end:
families, the training loop, a member that diverges, and the CLI's files
under every way of cutting an arm's seeds into stacks.
"""

import json
import math
import shutil

import numpy as np
import pytest

from engine_ops import mul, sum_all
from golden import record
from test_families import SAMPLES, SIZES, same_state
from test_golden import _WORKLOAD_SHAPES
from vconlab import cli
from vconlab.compression import (
    compress_network,
    prune_global,
    prune_layerwise,
    prune_nm,
    prune_structured,
    spec_to_dict,
)
from vconlab.model import init_params, stack_networks
from vconlab.tensor import Tensor, backward, linear
from vconlab.training import OptimizerSpec, TrainConfig, TrainingDiverged, make_synthetic, train
from vconlab.vcon import BetaScheduler, beta_at, wrap_network

STACKS = (1, 2, 5, 10)

_DISPATCH_NOTE = (
    "a member of a stacked numpy product or sum has other bytes than its own 2-D one; "
    "stacked training assumes numpy hands each member to the same kernel"
)


def _grads(x, w, b, g):
    tx, tw, tb = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    z = linear(tx, tw, tb)
    backward(sum_all(mul(z, Tensor(g))))  # linear's output gradient is g
    return z.data, tx.grad, tw.grad, tb.grad


@pytest.mark.parametrize("batch", [1, 26, 64, 225])
@pytest.mark.parametrize("stack", STACKS)
def test_stacked_linear_gives_each_members_bytes(stack, batch):
    # linear's three products (x @ w.T, g @ w, g.T @ x) and its bias sum over
    # the batch, stacked, against each member alone; an input shared by the
    # stack (a validation pass) against each member's own product too
    rng = np.random.default_rng(stack * 1000 + batch)
    for n, m in _WORKLOAD_SHAPES:
        x = rng.normal(size=(stack, batch, m))
        x[..., ::3] = np.maximum(x[..., ::3], 0.0)  # relu zeros, as hidden layers feed
        w, b, g = rng.normal(size=(stack, n, m)), rng.normal(size=(stack, n)), rng.normal(size=(stack, batch, n))
        stacked = _grads(x, w, b, g)
        shared = linear(Tensor(x[0]), Tensor(w), Tensor(b)).data
        for s in range(stack):
            alone = _grads(x[s], w[s], b[s], g[s])
            for got, want in zip(stacked, alone):
                assert got[s].tobytes() == want.tobytes(), f"{n}x{m}, batch {batch}: {_DISPATCH_NOTE}"
            want = linear(Tensor(x[0]), Tensor(w[s]), Tensor(b[s])).data
            assert shared[s].tobytes() == want.tobytes(), f"{n}x{m} shared input: {_DISPATCH_NOTE}"


def _weights(rng, stack, n, m):
    w = rng.normal(size=(stack, n, m))
    w[0, 0, :] = 0.5  # ties at the threshold take the per-row fallback
    if stack > 1:
        w[1, :, ::3] = math.nan  # and so does NaN
    return w


@pytest.mark.parametrize("stack", STACKS)
def test_stacked_masks_give_each_members_masks(stack):
    rng = np.random.default_rng(stack)
    rules = [lambda w: prune_layerwise(w, 0.9), lambda w: prune_structured(w, 0.5),
             lambda w: prune_nm(w, 2, 4), lambda w: prune_nm(w, 3, 8)]
    for n, m in _WORKLOAD_SHAPES:
        w = _weights(rng, stack, n, m)
        for rule in rules:
            masks = rule(w)
            for s in range(stack):
                assert masks[s].tobytes() == rule(w[s]).tobytes(), f"{n}x{m}"
    layers = [_weights(rng, stack, n, m) for n, m in ((64, 2), (64, 64), (3, 64))]
    masks = prune_global(layers, 0.95)
    for s in range(stack):
        for got, want in zip(masks, prune_global([w[s] for w in layers], 0.95)):
            assert got[s].tobytes() == want.tobytes()


def _members(seeds):
    return [init_params(SIZES, seed) for seed in seeds]


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_stacked_family_gives_each_members_state_and_forward(kind):
    spec = SAMPLES[kind]
    seeds = (3, 4, 5)
    stacked = compress_network(stack_networks(_members(seeds)), spec)
    x = Tensor(np.random.default_rng(6).uniform(-2, 2, size=(9, SIZES[0])))
    out = stacked.forward(x).data
    for i, lone in enumerate(compress_network(net, spec) for net in _members(seeds)):
        member = stacked.select(i)
        for got, want in zip(member.blocks, lone.blocks):
            assert same_state(got.state, want.state)
            assert [p.data.tobytes() for _, p in got.named_parameters()] == \
                [p.data.tobytes() for _, p in want.named_parameters()]
        assert out[i].tobytes() == lone.forward(x).data.tobytes()


def _spiral():
    return make_synthetic("spiral", classes=3, samples_per_class=20, noise=0.2, seed=0)


def _cfg(seed, **extra):
    return TrainConfig(epochs=2, batch_size=16, seed=seed, optimizer=OptimizerSpec(lr=0.02), **extra)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
@pytest.mark.parametrize("mode", ["ste_standard", "vcon", "post_shot"])
def test_stacked_training_gives_each_members_run(kind, mode):
    spec, seeds = SAMPLES[kind], (0, 1, 2)
    extra = {"q_steps": 3, "post_shot_spec": spec} if mode == "post_shot" else {}

    def start(net):
        if mode == "ste_standard":
            return compress_network(net, spec)
        return wrap_network(net, spec, BetaScheduler(q=3)) if mode == "vcon" else net

    net, log = train(start(stack_networks(_members(seeds))), _spiral(), _cfg(seeds, **extra))
    assert not log.failures
    for i, seed in enumerate(seeds):
        lone, lone_log = train(start(init_params(SIZES, seed)), _spiral(), _cfg(seed, **extra))
        assert log.member(i) == lone_log
        assert [p.data.tobytes() for _, p in net.select(i).named_parameters()] == \
            [p.data.tobytes() for _, p in lone.named_parameters()]


def test_a_diverging_member_leaves_its_stack():
    # the same NaN in member 1 of a dense and of a blended stack; the blended
    # one keeps its scheduler, so beta walks on from 1 to 0 after the shrink
    seeds = (0, 1, 2)
    starts = {
        "dense": lambda net: net,
        "vcon": lambda net: wrap_network(net, SAMPLES["prune_layer"], BetaScheduler(q=3)),
    }
    for mode, start in starts.items():
        nets = _members(seeds)
        nets[1].blocks[1].weight.data[0, 0] = math.nan
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            net, log = train(start(stack_networks(nets)), _spiral(), _cfg(seeds))
        (failure,) = log.failures.values()
        assert list(log.failures) == [1] and (failure.step, failure.lr, failure.beta) == (0, 0.02, 1.0), mode
        assert net.stack == (2,)
        assert all(math.isnan(loss[1]) for *_, loss in log.steps)
        for i, seed in ((0, 0), (1, 2)):
            lone, lone_log = train(start(init_params(SIZES, seed)), _spiral(), _cfg(seed))
            assert log.member(seeds.index(seed)) == lone_log, mode
            assert [p.data.tobytes() for _, p in net.select(i).named_parameters()] == \
                [p.data.tobytes() for _, p in lone.named_parameters()], mode
            assert net.select(i).scheduler is net.scheduler
        betas = [beta for _, beta, *_ in log.steps]
        assert len(betas) > 3 and betas == [1.0 if mode == "dense" else beta_at(t, 3) for t in range(len(betas))]


def test_a_stack_whose_members_all_diverge_raises_the_first():
    nets = _members((0, 1))
    nets[0].blocks[0].weight.data[:] = math.nan
    nets[1].blocks[0].weight.data[:] = math.nan
    with pytest.raises(TrainingDiverged, match=r"at step 0 \(lr=0\.02, beta=1\)"):
        train(stack_networks(nets), _spiral(), _cfg((0, 1)))


def test_a_stack_needs_one_seed_per_member():
    with pytest.raises(ValueError, match="seed"):
        train(stack_networks(_members((0, 1))), _spiral(), _cfg(0))


# --------------------------------------------------------------------------
# The CLI's files under every way of cutting an arm's seeds into stacks

_CONFIG = {
    "model": {"layer_sizes": SIZES, "activation": "relu"},
    "dataset": {"kind": "spiral", "classes": 3, "samples_per_class": 20, "noise": 0.2, "seed": 0},
    "optimizer": {"kind": "adam", "lr": 0.02},
    "epochs": 2,
    "batch_size": 16,
    "seeds": [0, 1, 2],
}
_COMMANDS = {
    "train": (["train", "--mode", "vcon", "--set", "q_steps=3"], 1),
    "compare": (["compare", "--set", "q_steps=3"], 2),
    "sweep": (["sweep-q", "--set", "q_steps=[0,3]"], 2),
}


def _outputs(out):
    return {path.relative_to(out).as_posix(): record._content(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_files_do_not_depend_on_how_seeds_are_stacked(tmp_path, monkeypatch, kind):
    # 3 seeds per arm: one stack per arm (1 worker); one seed per stack; stacks
    # of 2 + 1; and 2 workers, which stack an arm's seeds whole when there
    # are two arms and as 2 + 1 when there is one
    (tmp_path / "config.json").write_text(json.dumps({**_CONFIG, "compression": spec_to_dict(SAMPLES[kind])}))
    for name, (args, arms) in _COMMANDS.items():
        got = {}
        for schedule, workers in (("one stack", 1), ("one seed", 3 * arms), ("2 + 1", 2 * arms), ("pooled", 2)):
            monkeypatch.setattr(cli, "_worker_count", lambda runs, workers=workers: min(runs, workers))
            out = tmp_path / name  # the same for every schedule: summary.json records it
            assert cli.main([args[0], "--config", str(tmp_path / "config.json"), "--quiet",
                             "--set", f"output_dir={out}", *args[1:]]) == 0
            got[schedule] = _outputs(out)
            shutil.rmtree(out)
        first = got.pop("one stack")
        assert len(first) > 5
        for schedule, files in got.items():
            assert files == first, f"{name}: {schedule}"
