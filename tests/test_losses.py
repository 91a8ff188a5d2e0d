import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkan.continual import TrainerConfig
from dgkan.losses import (DomainLabeledBatch, align_loss, bce_loss, kd_loss, overall_loss,
                          supcon_loss)
from dgkan.numcore import ContractViolation, RngStream, finite_diff_grad, max_rel_err

from conftest import gradcheck


def supcon_bruteforce(features, labels, tau):
    """Independent double-loop oracle for the contrastive separation loss."""
    F = [np.array(f, dtype=float) for f in features]
    F = [f / math.sqrt(sum(x * x for x in f)) for f in F]
    n = len(F)
    terms = []
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [k for k in range(n) if labels[k] != labels[i]]
        if not pos or not neg:
            continue
        denom = math.fsum(math.exp(float(F[i] @ F[k]) / tau) for k in neg)
        term = math.fsum(-math.log(math.exp(float(F[i] @ F[j]) / tau) / denom) for j in pos)
        terms.append(term / len(pos))
    return math.fsum(terms) / len(terms)


def supcon_row_gather(batch, tau):
    """Frozen copy of the row-gathering ``supcon_loss`` that the full-block
    form replaced: same arithmetic in the same order, so the two must agree
    bit for bit."""
    if tau <= 0.0:
        raise ContractViolation("tau must be positive")
    F = batch.features
    d = batch.domain_class
    n = F.shape[0]
    if n < 2:
        raise ContractViolation("supcon_loss needs at least 2 samples")
    if np.unique(d).size < 2:
        raise ContractViolation("supcon_loss: no negatives (single domain label in batch)")

    norms = np.linalg.norm(F, axis=1)
    if np.any(norms < 1e-12):
        raise ContractViolation("supcon_loss: zero-norm feature row")
    U = F / norms[:, None]

    S = (U @ U.T) / tau
    same = d[:, None] == d[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same

    n_pos = pos_mask.sum(axis=1)
    valid = (n_pos > 0) & neg_mask.any(axis=1)
    if not valid.any():
        raise ContractViolation("supcon_loss: no anchor has both a positive and a negative")
    vi = np.where(valid)[0]
    n_valid = vi.size

    # log-sum-exp over negatives per valid anchor, with max subtraction
    Sv = S[vi]
    negv = neg_mask[vi]
    posv = pos_mask[vi]
    masked = np.where(negv, Sv, -np.inf)
    m = masked.max(axis=1)
    expn = np.exp(masked - m[:, None])         # exp(-inf) = 0 at non-negatives
    denom = expn.sum(axis=1)
    log_D = m + np.log(denom)

    pos_mean = (Sv * posv).sum(axis=1) / n_pos[vi]
    loss = float(np.mean(-pos_mean + log_D))

    # dL/dS[i,j]: -1/(V*|P_i|) on positives, softmax weight / V on negatives
    G = np.zeros_like(S)
    G[vi] = (expn / denom[:, None] - posv / n_pos[vi, None]) / n_valid

    gU = (G + G.T) @ U / tau
    # back through row normalization: (g - (g.u) u) / ||f||
    proj = (gU * U).sum(axis=1, keepdims=True)
    return loss, (gU - proj * U) / norms[:, None]


def _batch(F, d):
    F = np.asarray(F, dtype=float)
    return DomainLabeledBatch(F, np.asarray(d))


class TestBce:
    def test_maximum_entropy_point(self):
        loss, _ = bce_loss([0.0], [1])
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_correct(self):
        loss, _ = bce_loss([50.0], [1])
        assert loss < 1e-20

    def test_stable_at_large_logits(self):
        loss, grad = bce_loss([500.0, -500.0], [0, 1])
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_matches_naive_oracle(self, rng):
        z = rng.uniform(-8, 8, 40)
        y = rng.integers(0, 2, 40)
        loss, _ = bce_loss(z, y)
        naive = []
        for zi, yi in zip(z, y):
            p = 1.0 / (1.0 + math.exp(-zi))
            naive.append(-(yi * math.log(p) + (1 - yi) * math.log(1.0 - p)))
        assert loss == pytest.approx(math.fsum(naive) / 40, abs=1e-10)

    def test_gradient(self, rng):
        z = rng.uniform(-4, 4, 12)
        y = rng.integers(0, 2, 12)
        _, grad = bce_loss(z, y)
        gradcheck(lambda v: bce_loss(v, y)[0], z, grad)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            bce_loss([0.0, 1.0], [1])


class TestSupcon:
    def test_no_negatives_raises(self):
        with pytest.raises(ContractViolation, match="no negatives"):
            supcon_loss(_batch([[1.0, 0.0], [1.0, 0.0]], [0, 0]), 0.1)

    def test_negative_domain_class_code_rejected(self):
        # supcon_loss counts the codes with np.bincount, which raises an
        # unnamed ValueError on a negative one
        with pytest.raises(ContractViolation, match="domain-class codes must be >= 0"):
            _batch([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, -1, 0])

    def test_hand_value(self):
        F = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        loss, _ = supcon_loss(_batch(F, [0, 0, 1, 1]), 0.1)
        assert loss == pytest.approx(-(10.0 - math.log(2.0)), abs=1e-9)
        assert loss == pytest.approx(-9.30685, abs=1e-5)

    def test_matches_bruteforce(self, rng):
        checked = 0
        for trial in range(40):
            n = int(rng.integers(3, 9))
            F = rng.normal(size=(n, 4))
            d = rng.integers(0, 3, n)
            if np.unique(d).size < 2:
                continue
            try:
                loss, _ = supcon_loss(_batch(F, d), 0.1)
            except ContractViolation:
                continue  # no anchor with both a positive and a negative
            assert loss == pytest.approx(supcon_bruteforce(F, d, 0.1), abs=1e-9)
            checked += 1
        assert checked >= 20

    def test_anchor_without_positive_skipped(self, rng):
        # sample 4 has a unique label: excluded from the mean but still a negative
        F = rng.normal(size=(5, 3))
        d = np.array([0, 0, 1, 1, 2])
        loss, _ = supcon_loss(_batch(F, d), 0.2)
        assert loss == pytest.approx(supcon_bruteforce(F, d, 0.2), abs=1e-9)

    def test_gradient_matches_finite_diff(self, rng):
        for trial in range(15):
            F = rng.normal(size=(6, 4))
            d = np.array([0, 0, 1, 1, 2, 2])
            _, g = supcon_loss(_batch(F, d), 0.1)
            gradcheck(lambda flat: supcon_loss(_batch(flat.reshape(6, 4), d), 0.1)[0],
                      F.ravel(), g.ravel())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        r = RngStream(seed)
        F = r.normal(size=(7, 3))
        d = r.integers(0, 3, 7)
        if np.unique(d[np.array([np.sum(d == x) > 1 for x in d])]).size < 1 or np.unique(d).size < 2:
            return
        try:
            base, _ = supcon_loss(_batch(F, d), 0.1)
        except ContractViolation:
            return
        perm = r.permutation(7)
        shuffled, _ = supcon_loss(_batch(F[perm], d[perm]), 0.1)
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_orthogonal_invariance(self, rng):
        F = rng.normal(size=(6, 4))
        d = np.array([0, 0, 1, 1, 2, 2])
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base, _ = supcon_loss(_batch(F, d), 0.1)
        rotated, _ = supcon_loss(_batch(F @ Q.T, d), 0.1)
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_strictly_decreases_as_positive_pair_aligns(self):
        # anchor pair in the (e1, e2) plane, negatives orthogonal to it: only
        # the positive-pair similarity changes with theta
        def batch(theta):
            F = np.array([[1.0, 0.0, 0.0, 0.0],
                          [math.cos(theta), math.sin(theta), 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])
            return _batch(F, [0, 0, 1, 1])
        losses = [supcon_loss(batch(th), 0.1)[0] for th in (1.2, 0.8, 0.4, 0.1)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def _trainer_shaped(self, rng, t):
        """64 current rows over this task's 2 domain-classes, then 64 replay
        rows over the 2(t-1) earlier ones, as the trainer stacks them."""
        F = rng.normal(size=(128, 16))
        d = np.concatenate([2 * (t - 1) + rng.integers(0, 2, 64), rng.integers(0, 2 * (t - 1), 64)])
        return _batch(F, d)

    def _assert_bitwise(self, batch, tau):
        loss, g = supcon_loss(batch, tau)
        ref_loss, ref_g = supcon_row_gather(batch, tau)
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(g, ref_g)

    @pytest.mark.parametrize("t", range(2, 11))
    def test_bitwise_equal_to_row_gather_on_trainer_batches(self, rng, t):
        for trial in range(3):
            self._assert_bitwise(self._trainer_shaped(rng, t), 0.1)

    def test_bitwise_equal_with_a_skipped_anchor(self, rng):
        batch = self._trainer_shaped(rng, 4)
        rows = np.flatnonzero(batch.domain_class == 0)
        batch.domain_class[rows[1:]] = 1              # replay class 0 keeps one row: no positive
        assert rows.size > 1 and np.sum(batch.domain_class == 0) == 1
        self._assert_bitwise(batch, 0.1)

    def test_skipped_anchors_raise_no_floating_point_error(self, rng):
        # row 0 has no positive: its row of dL/dS is computed, then zeroed.
        # At tau = 1e-3 a positive's S - m passes exp's overflow threshold,
        # which only the clamp min(S - m, 0) keeps out of exp
        F = rng.normal(size=(4, 3)) * 50.0
        d = np.array([0, 1, 1, 1])
        U = F / np.linalg.norm(F, axis=1, keepdims=True)
        S = U @ U.T / 1e-3
        assert (S[1:, 1:] - S[1:, :1]).max() > 710.0       # m is S[i, 0], the one negative
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            loss, g = supcon_loss(_batch(F, d), 1e-3)
        assert np.isfinite(loss) and np.all(np.isfinite(g))

    @pytest.mark.parametrize("tau", [0.1, 0.5])
    def test_bitwise_equal_across_tau(self, rng, tau):
        for t in (2, 5):
            self._assert_bitwise(self._trainer_shaped(rng, t), tau)

    def test_leaves_features_unchanged_and_returns_fresh_gradients(self, rng):
        batch = self._trainer_shaped(rng, 3)
        before = batch.features.tobytes()
        _, g1 = supcon_loss(batch, 0.1)
        _, g2 = supcon_loss(batch, 0.1)
        assert batch.features.tobytes() == before
        assert not np.shares_memory(g1, g2)
        assert not np.shares_memory(g1, batch.features)
        assert np.array_equal(g1, g2)


class TestKdAlign:
    def test_identical_is_zero(self, rng):
        F = rng.normal(size=(4, 3))
        assert kd_loss(F, F)[0] == 0.0
        assert align_loss(F, F)[0] == 0.0

    def test_hand_value_mean_over_dims(self):
        loss, _ = kd_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert loss == pytest.approx(1.0)

    def test_align_unit_coordinate(self):
        p = np.zeros((1, 16))
        c = np.zeros((1, 16))
        p[0, 3] = 1.0
        assert align_loss(p, c)[0] == pytest.approx(1.0 / 16.0)

    def test_symmetry(self, rng):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        assert align_loss(a, b)[0] == pytest.approx(align_loss(b, a)[0], rel=1e-12)

    def test_nonnegative_iff_equal(self, rng):
        a = rng.normal(size=(3, 5))
        assert kd_loss(a, a + 1e-9)[0] > 0.0

    def test_gradient_formula_and_finite_diff(self, rng):
        t = rng.normal(size=(4, 4))
        s = rng.normal(size=(4, 4))
        loss, g = kd_loss(t, s)
        assert np.allclose(g, 2.0 * (s - t) / s.size, atol=1e-15)
        gradcheck(lambda flat: kd_loss(t, flat.reshape(4, 4))[0], s.ravel(), g.ravel())

    def test_align_gradient(self, rng):
        p = rng.normal(size=(3, 6))
        c = rng.normal(size=(3, 6))
        _, g = align_loss(p, c)
        gradcheck(lambda flat: align_loss(flat.reshape(3, 6), c)[0], p.ravel(), g.ravel())

    def test_shape_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            kd_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestOverall:
    def test_weighted_sum(self):
        assert overall_loss(0.5, 0.2, 0.1, 2.0, 1.0) == pytest.approx(1.0)

    def test_cls_only_ablation(self):
        assert overall_loss(0.7, 123.0, -5.0, 0.0, 0.0) == pytest.approx(0.7)

    def test_zero_components(self):
        cfg = TrainerConfig()
        assert overall_loss(0.3, 0.0, 0.0, cfg.lambda_sc, cfg.lambda_kd) == pytest.approx(0.3)

    def test_config_validation(self):
        with pytest.raises(ContractViolation, match="tau"):
            TrainerConfig(tau=0.0).validate()
        with pytest.raises(ContractViolation, match="lambda_sc"):
            TrainerConfig(lambda_sc=-1.0).validate()
