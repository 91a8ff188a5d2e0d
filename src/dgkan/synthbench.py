"""Synthetic domain-incremental streams: each domain is a Gaussian-mixture
"real" class plus a "fake" class shifted along a domain-specific direction,
with consecutive domains displaced by a fixed shift vector.

Generation is pure given (protocol, seed, d_x, sizes); train and eval
splits come from disjoint substreams of the same counter-based generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import ContractViolation, RngStream, check_int

# reference seeds used by the trend benchmarks and acceptance runs
REFERENCE_SEEDS = (11, 23, 47)

# Protocol geometry: per-dimension noise std, real-component offset from the
# domain mean, fake-class displacement, and the radius of the ring that gives
# the chained protocols a partial domain identity.
SIGMA, COMP_OFFSET, FAKE_SCALE, STYLE_SCALE = 0.35, 1.0, 2.0, 0.7
# protocol -> (domains, step between domain means in units of SIGMA, on the ring)
LAYOUTS = {"four-task": (4, 0.8, True), "ten-task": (10, 0.8, True),
           "two-task-overlap": (2, 0.8, False), "two-task-separated": (2, 36.0, False)}
PROTOCOLS = tuple(LAYOUTS)
MIN_SPLIT_ROWS = 2     # the fewest rows of a split that hold both classes


@dataclass
class TaskStream:
    """Ordered domain sequence, regenerable exactly from its seed, mean arrays
    and sizes.  Domain t's real and fake classes each mix two Gaussian
    components, with means ``real_means[t]`` and ``fake_means[t]``."""

    seed: int
    real_means: np.ndarray     # (T, 2, d_x)
    fake_means: np.ndarray     # (T, 2, d_x)
    train_n: int
    eval_n: int

    def __len__(self) -> int:
        return len(self.real_means)


def gen_domain(real_means: np.ndarray, fake_means: np.ndarray, rng: RngStream,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample exactly ``n`` labeled rows from one domain (balanced classes).

    Each row picks one of its class's two component means (the rows of a
    (2, d_x) array) uniformly and adds noise of std SIGMA per dimension.

    Returns (X, y) with y = 1 for the fake class; rows are shuffled.
    """
    if np.array_equal(real_means, fake_means):
        raise ContractViolation("real and fake generators must differ")
    n_real = (n + 1) // 2
    n_fake = n - n_real
    d_x = real_means.shape[1]
    X = np.empty((n, d_x))
    y = np.concatenate([np.zeros(n_real, dtype=np.int64), np.ones(n_fake, dtype=np.int64)])
    comp = rng.integers(0, 2, size=n)
    noise = rng.normal(size=(n, d_x))
    X[:n_real] = real_means[comp[:n_real]] + noise[:n_real] * SIGMA
    X[n_real:] = fake_means[comp[n_real:]] + noise[n_real:] * SIGMA
    order = rng.permutation(n)
    return X[order], y[order]


def dataset(stream: TaskStream, task_index: int, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-(task, split) dataset; splits use disjoint substreams."""
    if split not in ("train", "eval"):
        raise ContractViolation(f"unknown split {split!r}")
    if not 0 <= task_index < len(stream):
        raise ContractViolation(f"task index {task_index} out of range [0, {len(stream)})")
    n = stream.train_n if split == "train" else stream.eval_n
    rng = RngStream(stream.seed, ("data", task_index, split))
    return gen_domain(stream.real_means[task_index], stream.fake_means[task_index], rng, n)


# Six rows of the 8 x 8 Walsh-Hadamard matrix: pairwise orthogonal, and so
# still orthogonal when each is tiled to any multiple of 8.
WALSH_ROWS = {
    "shift": [1, 1, 1, 1, 1, 1, 1, 1],
    "comp": [1, -1, 1, -1, 1, -1, 1, -1],
    "style_a": [1, 1, 1, 1, -1, -1, -1, -1],
    "style_b": [1, -1, 1, -1, -1, 1, -1, 1],
    "fake_a": [1, 1, -1, -1, 1, 1, -1, -1],
    "fake_b": [1, -1, -1, 1, 1, -1, -1, 1],
}


def _protocol_geometry(d_x: int) -> dict[str, np.ndarray]:
    """The orthonormal directions that lay out domains (d_x % 8 == 0): each
    ``WALSH_ROWS`` pattern tiled to d_x and divided by its norm sqrt(d_x)."""
    if d_x % 8 != 0:
        raise ContractViolation("protocol construction requires d_x divisible by 8")
    return {name: np.tile(np.array(row, dtype=np.float64), d_x // 8) / np.sqrt(d_x)
            for name, row in WALSH_ROWS.items()}


def gen_sequence(protocol: str, seed: int, d_x: int = 8, train_n: int = 1024,
                 eval_n: int = 512) -> TaskStream:
    """Build one of the named protocols.

    Domain t's mean marches t steps along a fixed direction and, on the
    chained protocols, also sits on a ring that gives it a partial
    domain-identity offset; its fake class is displaced along a rotating
    domain-specific direction.  four-task / ten-task chain
    partially-overlapping domains; the two-task variants place the pair of
    domain means >= 10 sigma apart (separated) or <= 1 sigma apart (overlap).
    ``seed`` must be an integer >= 0 and each size one >= ``MIN_SPLIT_ROWS``.
    """
    seed = check_int(seed, "seed", 0)
    train_n, eval_n = (check_int(n, name, MIN_SPLIT_ROWS) for n, name in
                       ((train_n, "train_n"), (eval_n, "eval_n")))
    if protocol not in LAYOUTS:
        raise ContractViolation(f"unknown protocol {protocol!r}")
    num_tasks, step, styled = LAYOUTS[protocol]
    shift_mag = step * SIGMA            # t * shift_mag, not t * step * SIGMA: other bytes
    geom = _protocol_geometry(d_x)
    real = np.empty((num_tasks, 2, d_x))
    fake = np.empty((num_tasks, 2, d_x))
    for t in range(num_tasks):
        angle = 2.0 * np.pi * t / max(num_tasks, 2)
        cos, sin = np.cos(angle), np.sin(angle)
        mu = t * shift_mag * geom["shift"]
        if styled:
            mu = mu + STYLE_SCALE * (cos * geom["style_a"] + sin * geom["style_b"])
        real[t] = mu + COMP_OFFSET * geom["comp"], mu - COMP_OFFSET * geom["comp"]
        fake[t] = real[t] + FAKE_SCALE * (cos * geom["fake_a"] + sin * geom["fake_b"])
    return TaskStream(seed, real, fake, train_n, eval_n)
