"""Synthetic domain-incremental streams: each domain is a Gaussian-mixture
"real" class plus a "fake" class shifted along a domain-specific direction,
with consecutive domains displaced by a fixed shift vector.

Generation is pure given (spec, seed); train and eval splits come from
disjoint substreams of the same counter-based generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import ContractViolation, RngStream

PROTOCOLS = ("four-task", "ten-task", "two-task-overlap", "two-task-separated")

# reference seeds used by the trend benchmarks and acceptance runs
REFERENCE_SEEDS = (11, 23, 47)

# Protocol geometry: per-dimension noise std, real-component offset from the
# domain mean, fake-class displacement, and the radius of the ring that gives
# the chained protocols a partial domain identity.
SIGMA, COMP_OFFSET, FAKE_SCALE, STYLE_SCALE = 0.35, 1.0, 2.0, 0.7
# protocol -> (domains, step between domain means in units of SIGMA, on the ring)
LAYOUTS = {"four-task": (4, 0.8, True), "ten-task": (10, 0.8, True),
            "two-task-separated": (2, 36.0, False), "two-task-overlap": (2, 0.8, False)}


@dataclass
class DomainSpec:
    """Generator parameters for one domain (two mixture components per class)."""

    domain_id: int
    real_means: np.ndarray     # (2, d_x)
    fake_means: np.ndarray     # (2, d_x)
    cov_diag: np.ndarray       # (d_x,)
    train_n: int
    eval_n: int

    def __post_init__(self):
        self.real_means = np.asarray(self.real_means, dtype=np.float64)
        self.fake_means = np.asarray(self.fake_means, dtype=np.float64)
        self.cov_diag = np.asarray(self.cov_diag, dtype=np.float64)
        if np.array_equal(self.real_means, self.fake_means):
            raise ContractViolation("real and fake generators must differ")

    @property
    def d_x(self) -> int:
        return self.real_means.shape[1]


@dataclass
class TaskStream:
    """Ordered domain sequence, regenerable exactly from (seed, specs)."""

    seed: int
    specs: list[DomainSpec]

    def __len__(self) -> int:
        return len(self.specs)


def gen_domain(spec: DomainSpec, rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample exactly ``n`` labeled rows from one domain (balanced classes).

    Returns (X, y) with y = 1 for the fake class; rows are shuffled.
    """
    if np.any(spec.cov_diag <= 0.0):
        raise ContractViolation("covariance diagonal must be strictly positive")
    n_real = (n + 1) // 2
    n_fake = n - n_real
    std = np.sqrt(spec.cov_diag)
    X = np.empty((n, spec.d_x))
    y = np.concatenate([np.zeros(n_real, dtype=np.int64), np.ones(n_fake, dtype=np.int64)])
    comp = rng.integers(0, 2, size=n)
    noise = rng.normal(size=(n, spec.d_x))
    X[:n_real] = spec.real_means[comp[:n_real]] + noise[:n_real] * std
    X[n_real:] = spec.fake_means[comp[n_real:]] + noise[n_real:] * std
    order = rng.permutation(n)
    return X[order], y[order]


def dataset(stream: TaskStream, task_index: int, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-(task, split) dataset; splits use disjoint substreams."""
    if split not in ("train", "eval"):
        raise ContractViolation(f"unknown split {split!r}")
    spec = stream.specs[task_index]
    n = spec.train_n if split == "train" else spec.eval_n
    rng = RngStream(stream.seed, ("data", spec.domain_id, split))
    return gen_domain(spec, rng, n)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _protocol_geometry(d_x: int) -> dict[str, np.ndarray]:
    """Fixed orthonormal directions used to lay out domains (d_x % 8 == 0)."""
    if d_x % 8 != 0:
        raise ContractViolation("protocol construction requires d_x divisible by 8")
    raw = {
        "shift": np.ones(d_x),
        "comp": np.tile([1.0, -1.0], d_x // 2),
        "style_a": np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], d_x // 8),
        "style_b": np.tile([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0], d_x // 8),
        "fake_a": np.tile([1.0, 1.0, -1.0, -1.0], d_x // 4),
        "fake_b": np.tile([1.0, -1.0, -1.0, 1.0], d_x // 4),
    }
    geom: dict[str, np.ndarray] = {}
    basis: list[np.ndarray] = []
    for name, vec in raw.items():
        v = vec.astype(np.float64)
        for b in basis:
            v = v - (v @ b) * b
        v = _unit(v)
        basis.append(v)
        geom[name] = v
    return geom


def _build_specs(num_tasks: int, shift_mag: float, d_x: int, train_n: int, eval_n: int,
                 style_scale: float = 0.0) -> list[DomainSpec]:
    """Lay out ``num_tasks`` domains.

    Each domain marches ``shift_mag`` along a fixed direction and, when
    ``style_scale`` > 0, additionally sits on a ring that gives it a partial
    domain-identity offset; its fake class is displaced along a rotating
    domain-specific direction.
    """
    geom = _protocol_geometry(d_x)
    specs = []
    for t in range(num_tasks):
        mu = t * shift_mag * geom["shift"]
        if style_scale > 0.0:
            psi = 2.0 * np.pi * t / max(num_tasks, 2)
            mu = mu + style_scale * (np.cos(psi) * geom["style_a"] + np.sin(psi) * geom["style_b"])
        real = np.stack([mu + COMP_OFFSET * geom["comp"], mu - COMP_OFFSET * geom["comp"]])
        theta = 2.0 * np.pi * t / max(num_tasks, 2)
        fake_dir = np.cos(theta) * geom["fake_a"] + np.sin(theta) * geom["fake_b"]
        fake = real + FAKE_SCALE * fake_dir
        specs.append(DomainSpec(domain_id=t, real_means=real, fake_means=fake,
                                cov_diag=np.full(d_x, SIGMA * SIGMA),
                                train_n=train_n, eval_n=eval_n))
    return specs


def gen_sequence(protocol: str, seed: int, d_x: int = 8, train_n: int = 1024,
                 eval_n: int = 512) -> TaskStream:
    """Build one of the named protocols.

    four-task / ten-task chain partially-overlapping shifted domains whose
    fake classes rotate through domain-specific directions; the two-task
    variants place the pair of domain means >= 10 sigma apart (separated) or
    <= 1 sigma apart (overlap).
    """
    if protocol not in LAYOUTS:
        raise ContractViolation(f"unknown protocol {protocol!r}")
    num_tasks, step, styled = LAYOUTS[protocol]
    specs = _build_specs(num_tasks, step * SIGMA, d_x, train_n, eval_n,
                         style_scale=STYLE_SCALE if styled else 0.0)
    return TaskStream(seed=int(seed), specs=specs)

