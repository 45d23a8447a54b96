"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive and shares no code with the
package: finite-difference gradients, a two-sided Jacobi
eigendecomposition of W^T W for singular values, a loop-based MLP
forward, and the per-pair one-sided Jacobi loop the SVD must match bit
for bit. Slow is fine; these run on small inputs.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-5
SVD_TOL = 1e-12  # the package's one-sided Jacobi threshold and sweep cap
SVD_MAX_SWEEPS = 100


def finite_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative disagreement, safe near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def jacobi_eigh(sym: np.ndarray, tol: float = 1e-14, max_sweeps: int = 200) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via classical cyclic Jacobi.

    Returns eigenvalues sorted descending. Used as the oracle for
    singular values: eig(W^T W) = sigma^2.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol * scale:
                    continue
                if a[p, p] == a[q, q]:
                    theta = math.pi / 4.0 if a[p, q] > 0 else -math.pi / 4.0
                    c, s = math.cos(theta), math.sin(theta)
                else:
                    tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = c * t
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    values = np.sort(a.diagonal())[::-1]
    return values.copy()


def singular_values_oracle(w: np.ndarray) -> np.ndarray:
    """All singular values of w, descending, via eig(W^T W)."""
    w = np.asarray(w, dtype=np.float64)
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    eig = jacobi_eigh(gram)
    return np.sqrt(np.clip(eig, 0.0, None))


def per_pair_jacobi_svd(w: np.ndarray, rank: int):
    """Truncated SVD ``(u, singular_values, v)`` by the plain per-pair
    one-sided Jacobi loop: three fresh strided dots per pair, a rotation built
    from temporaries. The package's ``truncated_svd`` caches norms and rotates
    in place, and must return these exact bytes."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] >= w.shape[1]:
        u, sig, v = _per_pair_jacobi(w)
    else:
        v, sig, u = _per_pair_jacobi(w.T)
    return u[:, :rank].copy(), sig[:rank].copy(), v[:, :rank].copy()


def _per_pair_jacobi(a):
    u = a.astype(np.float64).copy()
    cols = u.shape[1]
    v = np.eye(cols)
    for _ in range(SVD_MAX_SWEEPS):
        rotated = False
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                x = u[:, i]
                y = u[:, j]
                pp = float(x @ x)
                qq = float(y @ y)
                pq = float(x @ y)
                if abs(pq) <= SVD_TOL * math.sqrt(pp) * math.sqrt(qq):
                    continue
                rotated = True
                zeta = (qq - pp) / (2.0 * pq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                u[:, i], u[:, j] = c * x - s * y, s * x + c * y
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    sig = np.sqrt((u * u).sum(axis=0))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = sig > 0.0
    u[:, nonzero] = u[:, nonzero] / sig[nonzero]
    return u, sig, v


def mlp_forward(x, layers, activation="relu"):
    """Loop-based MLP forward: layers = [(W, b), ...], last layer linear."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((x.shape[0], layers[-1][0].shape[0]))
    for r, row in enumerate(x):
        h = row.astype(np.float64)
        for li, (w, b) in enumerate(layers):
            z = np.zeros(w.shape[0])
            for i in range(w.shape[0]):
                acc = 0.0
                for j in range(w.shape[1]):
                    acc += w[i, j] * h[j]
                z[i] = acc + b[i]
            if li < len(layers) - 1:
                if activation == "relu":
                    z = np.maximum(z, 0.0)
                elif activation == "gelu":
                    k = math.sqrt(2.0 / math.pi)
                    z = 0.5 * z * (1.0 + np.tanh(k * (z + 0.044715 * z**3)))
            h = z
        out[r] = h
    return out


def cross_entropy_oracle(logits: np.ndarray, labels) -> float:
    """Scalar mean cross-entropy computed the slow, explicit way."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for row, label in zip(logits, labels):
        m = row.max()
        ez = np.exp(row - m)
        total += -(row[label] - m - math.log(ez.sum()))
    return total / logits.shape[0]


def rerank_mask_oracle(w: np.ndarray, sparsity: float) -> np.ndarray:
    """Per-layer magnitude mask built by explicit enumeration.

    Sorts (|w|, flat index) pairs lexicographically and zeroes the first
    floor(sparsity * size); independent of the argsort-based production
    code path.
    """
    w = np.asarray(w, dtype=np.float64)
    flat = np.abs(w).ravel()
    pairs = sorted((val, idx) for idx, val in enumerate(flat))
    drop = int(math.floor(sparsity * flat.size))
    mask = np.ones(flat.size)
    for val, idx in pairs[:drop]:
        mask[idx] = 0.0
    return mask.reshape(w.shape)


def stable_sort_masks_oracle(layers, sparsity: float, rule: str) -> list[np.ndarray]:
    """Pruning masks by a full stable argsort, the reference the package's
    linear-time selection must reproduce bit for bit, NaN included.

    ``rule`` is "global" (one ranking over all layers, ties by layer index,
    then flat index), "layer" (each layer ranked on its own) or "rows"
    (whole rows ranked by l2 norm).
    """
    arrs = [np.asarray(w, dtype=np.float64) for w in layers]
    if rule == "layer":
        return [stable_sort_masks_oracle([a], sparsity, "global")[0] for a in arrs]
    if rule == "rows":
        masks = []
        for w in arrs:
            norms = np.sqrt((w * w).sum(axis=1))
            drop = int(math.floor(sparsity * w.shape[0]))
            mask = np.ones_like(w)
            if drop:
                mask[np.argsort(norms, kind="stable")[:drop], :] = 0.0
            masks.append(mask)
        return masks
    flat = np.concatenate([np.abs(a).ravel() for a in arrs])
    drop = int(math.floor(sparsity * flat.size))
    mask_flat = np.ones(flat.size)
    if drop:
        mask_flat[np.argsort(flat, kind="stable")[:drop]] = 0.0
    masks = []
    offset = 0
    for a in arrs:
        masks.append(mask_flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return masks


def per_group_nm_mask_oracle(w: np.ndarray, keep: int, group: int) -> np.ndarray:
    """N:M mask by one stable argsort per group of columns: the loop the
    package's ``prune_nm`` (ranks from int64 keys, one pass for all groups)
    must reproduce bit for bit, NaN and ties included."""
    w = np.asarray(w, dtype=np.float64)
    n, m = w.shape
    scores = np.abs(w)
    mask = np.zeros_like(w)
    rows = np.arange(n)[:, None]
    for start in range(0, m, group):
        stop = min(start + group, m)
        width = stop - start
        kept = keep if width == group else -(-keep * width // group)
        order = np.argsort(scores[:, start:stop], axis=1, kind="stable")
        mask[rows, start + order[:, width - kept :]] = 1.0
    return mask


class PerTensorOptimizer:
    """SGD or Adam one parameter at a time, with moments keyed by name: the
    loop the package's flat optimizer must reproduce bit for bit.

    ``step`` takes ``(name, data, grad)`` triples and updates each ``data``
    in place; a None grad leaves its parameter and moments alone. Each
    gradient is first added to a zero-filled array, as it was when backward
    accumulated into zero buffers, so -0.0 arrives as +0.0. A name whose
    shape changed restarts from zero moments (the loop this mirrors raised
    a numpy broadcasting error there instead).
    """

    def __init__(self, kind: str, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.kind, self.beta1, self.beta2, self.eps = kind, beta1, beta2, eps
        self.state: dict[str, dict[str, np.ndarray]] = {}
        self.t = 0

    def step(self, triples, lr: float) -> None:
        self.t += 1
        for name, data, grad in triples:
            if grad is None:
                continue
            g = np.zeros_like(data) + grad
            if self.kind == "sgd":
                data -= lr * g
                continue
            st = self.state.get(name)
            if st is None or st["m"].shape != data.shape:
                st = {"m": np.zeros_like(data), "v": np.zeros_like(data)}
                self.state[name] = st
            m, v = st["m"], st["v"]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
