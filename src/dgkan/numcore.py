"""Float64 numerics: Adam, a finite-difference gradient oracle, and
counter-based random streams.

Everything downstream computes gradients analytically, layer by layer; the
central-difference estimator in this module is the independent oracle those
gradients are checked against.  All arrays are float64 throughout -- gradient
checks at 1e-4 relative tolerance are not reliable in float32.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ContractViolation(ValueError):
    """Raised when a caller breaks a documented precondition."""


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate that every entry of ``a`` is finite; returns ``a``."""
    if not np.isfinite(a).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(a)))
        raise ContractViolation(f"{name} contains non-finite entries (first at index {tuple(bad[0].tolist())})")
    return a


# Adam's decay rates and denominator guard (Kingma & Ba 2014); no run sets them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments, step count and learning rate of one parameter vector;
    ``adam_step`` advances them in place."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        self.m = np.array(self.m, dtype=np.float64)     # copies: the state owns its moments
        self.v = np.array(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape:
            raise ContractViolation("Adam moment vectors must have equal length")
        if not 0.0 < self.lr < np.inf:                  # NaN fails both comparisons
            raise ContractViolation(f"Adam lr must be finite and positive, got {self.lr!r}")
        if self.step_count < 0:
            raise ContractViolation("Adam step count must be >= 0")

    @classmethod
    def init(cls, n_params: int, lr: float) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update of ``params`` in place (a float64
    array); advances ``state`` in place too and returns ``params``.

    The update is params - lr * m_hat / (sqrt(v_hat) + eps), associated as
    written, so it has the bytes of the out-of-place form; the two
    temporaries are updated in place.  Zero gradients leave the parameters
    bit-identical (the update term is exactly 0.0), so repeated no-op steps
    only advance the step counter.
    """
    if not isinstance(params, np.ndarray) or params.dtype != np.float64:
        raise ContractViolation("adam_step updates params in place: pass a float64 array")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ContractViolation(
            f"adam_step length mismatch: params {params.shape}, grads {grads.shape}, moments {state.m.shape}")
    check_finite(grads, "adam_step gradient")
    state.step_count += 1
    t = state.step_count
    tmp = np.multiply(grads, 1.0 - BETA1)
    state.m *= BETA1
    state.m += tmp
    np.multiply(grads, 1.0 - BETA2, out=tmp)
    tmp *= grads
    state.v *= BETA2
    state.v += tmp
    np.divide(state.v, 1.0 - BETA2 ** t, out=tmp)      # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += EPS
    step = np.divide(state.m, 1.0 - BETA1 ** t)         # m_hat
    step *= state.lr
    step /= tmp
    params -= step
    return params


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    This is the oracle against which all analytic gradients are checked;
    it must never be replaced by the code paths it validates.
    """
    if h <= 0.0:
        raise ContractViolation("finite_diff_grad requires h > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ContractViolation(f"finite_diff_grad: non-finite function value at coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative disagreement, denominator max(|a|, |g|, 1e-8) per entry."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    g = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != g.shape:
        raise ContractViolation("max_rel_err shape mismatch")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(g)), 1e-8)
    return float(np.max(np.abs(a - g) / denom)) if a.size else 0.0


def _key_part(part) -> int:
    """Map a stream path element to a stable 32-bit integer."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def check_int(value, name: str, least: int) -> int:
    """``value`` as a Python int; ContractViolation naming ``name`` unless it
    is an integer >= ``least``, Python's or numpy's (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ContractViolation(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class RngStream:
    """Counter-based random stream (Philox) keyed by (seed, path).

    Substreams are derived from the key alone, never from draw position, so
    the sequence seen by any consumer is independent of evaluation order.
    Identical seeds (integers >= 0) produce identical draws on every platform.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = check_int(seed, "seed", 0)
        self.path = tuple(_key_part(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def substream(self, *path) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(path))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
