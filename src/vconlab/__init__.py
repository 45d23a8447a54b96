"""Desk-scale lab for gradual neural-network compression.

Small dense networks train while each block runs in parallel with a
compressed twin under a blend weight that walks linearly from 1 to 0;
once it lands, the dense branches are dropped and a structurally
ordinary compressed network remains. Standard one-shot and
straight-through-estimator baselines, a handful of magnitude-pruning
granularities, sign binarization, and truncated-SVD factorization are
included for comparison, all on a small hand-rolled float64 autodiff
core.
"""

from .tensor import (
    ShapeError,
    Tensor,
    add,
    add_bias,
    backward,
    gelu,
    matmul,
    mul,
    relu,
    scale,
    softmax_cross_entropy,
    ste_apply,
    sub,
    sum_all,
    transpose,
)
from .model import ACTIVATIONS, DenseBlock, Network, apply_activation, init_params
from .compression import (
    BinaryQuant,
    CompressedBlock,
    CompressionSpec,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    ScaledSign,
    SvdResult,
    binarize_scaled,
    bit_footprint,
    compress_block,
    compress_network,
    factorize_layer,
    magnitude_scores,
    prune_global,
    prune_layerwise,
    prune_nm,
    prune_structured,
    refresh_blocks,
    spec_from_dict,
    spec_param_count,
    spec_to_dict,
    truncated_svd,
)
from .vcon import (
    BetaScheduler,
    VconBlock,
    beta_at,
    finalize,
    schedulers_of,
    wrap_block,
    wrap_network,
)
from .training import (
    Constant,
    Cosine,
    DataError,
    Dataset,
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
    refresh_network,
    steps_per_epoch,
    train,
    write_runlog,
)
from .checkpoint import CheckpointError, load_network, save_network

__version__ = "0.1.0"
