import tracemalloc

import numpy as np
import pytest

from dgkan.numcore import RngStream


@pytest.fixture
def rng():
    return RngStream(1234)


def gradcheck(f, x, analytic, h=1e-5, tol=1e-4):
    """Assert analytic gradient of scalar f matches central differences."""
    from dgkan.numcore import finite_diff_grad, max_rel_err
    numeric = finite_diff_grad(f, np.asarray(x, dtype=np.float64), h)
    err = max_rel_err(analytic, numeric)
    assert err <= tol, f"gradient mismatch: max rel err {err:.3e} > {tol}"
    return err


def gradcheck_vec(f, x, analytic, h=1e-5, tol=1e-4):
    """Vector-scale variant: worst absolute gap over the gradient's sup-norm.

    Used for input gradients, where individual Gaussian-tail components sit
    below the finite-difference noise floor.
    """
    from dgkan.numcore import finite_diff_grad
    a = np.asarray(analytic, dtype=np.float64).ravel()
    g = finite_diff_grad(f, np.asarray(x, dtype=np.float64), h).ravel()
    scale = max(np.abs(a).max(), np.abs(g).max(), 1e-8)
    err = float(np.abs(a - g).max() / scale)
    assert err <= tol, f"gradient mismatch: sup-norm rel err {err:.3e} > {tol}"
    return err


def peak_alloc_bytes(fn, *args):
    """Most bytes ``fn(*args)`` held allocated at once beyond what was live
    before the call, its result included, as tracemalloc sees them (numpy
    reports its array buffers to it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _arrays(tree):
    """Every array in a cache: tuples and lists walked, in order."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in _arrays(item)]
    return []


def assert_backward_keeps_cache(forward_cached, backward, X, dY):
    """Guard for kernels that write in place: ``backward`` must only read the
    cache of ``forward_cached(X)``.  Two calls on one cache give the same
    bytes, every cached array and ``X`` keep theirs, and neither the output
    (a caller may add into it) nor the gradients share memory with the cache."""
    X_kept = X.tobytes()
    Y, cache = forward_cached(X)
    cached = _arrays(cache)
    kept = [a.tobytes() for a in cached]
    first = backward(dY, cache)
    assert [a.tobytes() for a in cached] == kept
    second = backward(dY, cache)
    assert [a.tobytes() for a in _arrays(second)] == [a.tobytes() for a in _arrays(first)]
    assert [a.tobytes() for a in cached] == kept
    assert X.tobytes() == X_kept
    for out in [Y] + _arrays(first):
        assert not any(np.shares_memory(out, a) for a in cached)
