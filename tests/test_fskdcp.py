import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dgkan.fskdcp import (FeatureMemory, KdcpProjection, augment_features, herd_indices,
                          label_quotas, project_memory, save_memory,
                          select_features, select_indices, train_projection_step)
from dgkan import fskdcp
from dgkan.continual import Trainer, TrainerConfig
from dgkan.kanheads import FeatureExtractor
from dgkan.numcore import AdamState, ContractViolation, RngStream, finite_diff_grad, max_rel_err
from dgkan.synthbench import dataset, gen_sequence

from conftest import assert_backward_keeps_cache, gradcheck


def herding_oracle(rows, quota):
    """Pure-python greedy mean-matching, independent arithmetic."""
    rows = [list(map(float, r)) for r in rows]
    n, d = len(rows), len(rows[0])
    mu = [math.fsum(r[j] for r in rows) / n for j in range(d)]
    chosen, sums = [], [0.0] * d
    avail = list(range(n))
    for k in range(min(quota, n)):
        best, best_d2 = None, None
        for idx in avail:
            cand = [(sums[j] + rows[idx][j]) / (k + 1) for j in range(d)]
            d2 = math.fsum((cand[j] - mu[j]) ** 2 for j in range(d))
            if best_d2 is None or d2 < best_d2 - 0.0 or (d2 == best_d2 and idx < best):
                if best_d2 is None or d2 < best_d2:
                    best, best_d2 = idx, d2
        chosen.append(best)
        for j in range(d):
            sums[j] += rows[best][j]
        avail.remove(best)
    return chosen


def herding_reference(features: np.ndarray, quota: int) -> np.ndarray:
    """Greedy mean-matching selection within one label.

    Step k picks the unselected row whose inclusion brings the selected-set
    mean closest to the full mean; ties resolve to the lowest index.
    """
    rows = np.asarray(features, dtype=np.float64)
    n = rows.shape[0]
    quota = min(quota, n)
    mu = rows.mean(axis=0)
    chosen: list[int] = []
    avail = np.arange(n)
    sum_sel = np.zeros(rows.shape[1])
    for k in range(quota):
        cand = (sum_sel + rows[avail]) / (k + 1)
        d2 = ((cand - mu) ** 2).sum(axis=1)
        j = int(np.argmin(d2))            # first occurrence wins ties
        idx = int(avail[j])
        chosen.append(idx)
        sum_sel += rows[idx]
        avail = np.delete(avail, j)
    return np.asarray(chosen, dtype=np.int64)


def _assert_same_herding(rows, quotas):
    for quota in quotas:
        got = herd_indices(rows, quota)
        assert got.dtype == np.int64
        assert got.tolist() == herding_reference(rows, quota).tolist(), f"quota {quota}"


class TestHerdingMatchesReference:
    """The mat-vec filter plus exact re-check returns the direct loop's
    indices, ties and rounding included."""

    @pytest.mark.parametrize("d_f", [1, 2, 5, 16])
    def test_integer_lattice(self, d_f, rng):
        for trial in range(4):
            n = int(rng.integers(2, 120))
            rows = rng.integers(-2, 3, size=(n, d_f)).astype(np.float64)
            _assert_same_herding(rows, [1, n // 2, n])

    @pytest.mark.parametrize("d_f", [1, 3, 16])
    def test_duplicated_rows(self, d_f, rng):
        for distinct in (1, 3, 10):
            base = rng.normal(size=(distinct, d_f))
            rows = base[rng.integers(0, distinct, 150)]
            _assert_same_herding(rows, [1, 75, 150])

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_scales(self, scale, rng):
        offset = rng.normal(scale=5.0, size=16)       # a mean far from the origin
        rows = (offset + rng.normal(size=(200, 16))) * scale
        _assert_same_herding(rows, [1, 37, 200])
        _assert_same_herding(np.round(rows / scale) * scale, [1, 37, 200])

    def test_one_feature_column(self, rng):
        rows = rng.normal(size=(64, 1))
        _assert_same_herding(rows, [1, 20, 64])
        _assert_same_herding(np.array([[0.0], [1.0], [2.0], [3.0]]), [1, 4])

    def test_overflowing_norms(self, rng):
        rows = rng.normal(size=(40, 4)) * 1e160        # squared norms overflow to inf
        one_huge = rng.normal(size=(40, 4))
        one_huge[7] *= 1e160                           # finite scores, infinite bound
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same_herding(rows, [1, 13, 40])
            _assert_same_herding(one_huge, [1, 13, 40])

    def test_zero_quota(self, rng):
        got = herd_indices(rng.normal(size=(5, 3)), 0)
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("head", ["dgkd", "mlp", "groupkan"])
    def test_trainer_pools(self, head, monkeypatch):
        pools = []

        def recording(features, quota):
            pools.append((np.array(features, dtype=np.float64), quota))
            return herd_indices(features, quota)

        monkeypatch.setattr(fskdcp, "herd_indices", recording)
        stream = gen_sequence("four-task", 11, train_n=96, eval_n=64)
        tr = Trainer(TrainerConfig(head=head, epochs=2, memory_budget=60), 11)
        for t in range(2):
            tr.train_task(*dataset(stream, t, "train"))
        assert len(pools) == 6                          # 2 labels, then 4
        for rows, quota in pools:
            _assert_same_herding(rows, [quota])


class TestSelection:
    def test_budget_at_least_n_selects_all(self, rng):
        F = rng.normal(size=(10, 3))
        d = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        idx = select_indices(F, d, budget=10)
        assert sorted(idx.tolist()) == list(range(10))

    def test_points_on_line_tie_goes_to_lower_index(self):
        F = np.array([[0.0], [1.0], [2.0], [3.0]])
        idx = select_indices(F, np.zeros(4, dtype=int), budget=1)
        assert idx.tolist() == [1]

    def test_herding_mean_approaches_class_mean(self, rng):
        rows = rng.normal(size=(30, 4))
        mu = rows.mean(axis=0)
        order = herd_indices(rows, 30)
        dists = []
        running = np.zeros(4)
        for k, idx in enumerate(order, start=1):
            running += rows[idx]
            dists.append(np.linalg.norm(running / k - mu))
        # greedy mean-matching: early selected-set means are near the class
        # mean, and the full set recovers it exactly
        assert dists[-1] == pytest.approx(0.0, abs=1e-12)
        assert dists[0] == min(np.linalg.norm(rows[i] - mu) for i in range(30))
        assert max(dists[:10]) <= max(np.linalg.norm(rows[i] - mu) for i in range(30))

    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(15):
            n = int(rng.integers(4, 13))
            rows = rng.normal(size=(n, 3))
            quota = int(rng.integers(1, n + 1))
            assert herd_indices(rows, quota).tolist() == herding_oracle(rows, quota)

    def test_quotas_differ_by_at_most_one(self, rng):
        F = rng.normal(size=(40, 2))
        d = np.repeat([0, 1, 2], [14, 13, 13])
        mem = select_features(F, d, budget=10)
        counts = [int((mem.domain_class == l).sum()) for l in (0, 1, 2)]
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1
        assert counts[0] >= counts[2]  # remainder goes to the earliest labels

    def test_budget_never_exceeded(self, rng):
        F = rng.normal(size=(100, 2))
        d = rng.integers(0, 4, 100)
        mem = select_features(F, d, budget=17)
        assert len(mem) <= 17

    def test_quota_redistribution_when_label_small(self):
        quotas = label_quotas({0: 2, 1: 50}, budget=10)
        assert quotas == {0: 2, 1: 8}

    def test_empty_input(self):
        with pytest.raises(ContractViolation):
            select_indices(np.zeros((0, 2)), np.zeros(0, dtype=int), 5)

    def test_budget_below_label_count(self, rng):
        F = rng.normal(size=(6, 2))
        with pytest.raises(ContractViolation):
            select_indices(F, np.array([0, 1, 2, 3, 4, 5]), budget=3)

    def test_label_decoding(self, rng):
        F = rng.normal(size=(8, 2))
        d = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        mem = select_features(F, d, budget=8, space_task=4)
        assert np.array_equal(mem.label, d % 2)
        assert np.array_equal(mem.source_task, d // 2 + 1)
        assert mem.space_task == 4


def _projection(rng, d_f=6):
    feats = rng.normal(size=(40, d_f))
    return KdcpProjection.init(feats, groups=d_f, target_task=2), feats


class TestProjection:
    def test_identity_at_init(self, rng):
        proj, _ = _projection(rng)
        F = rng.normal(size=(10, 6))
        assert np.array_equal(proj.apply(F), F)

    def test_teacher_equals_student_leaves_params_unchanged(self, rng):
        proj, feats = _projection(rng)
        before = proj.layer.param_vector().copy()
        opt = AdamState.init(proj.layer.n_params(), lr=5e-4)
        loss = train_projection_step(proj, feats, feats, opt)
        assert loss == 0.0
        assert np.array_equal(proj.layer.param_vector(), before)

    def test_constant_shift_learned(self, rng):
        batch = rng.normal(size=(64, 6))
        proj = KdcpProjection.init(batch, groups=6, target_task=2)
        shift = rng.normal(scale=0.3, size=6)
        opt = AdamState.init(proj.layer.n_params(), lr=5e-4)
        loss = None
        for _ in range(500):
            loss = train_projection_step(proj, batch, batch + shift, opt)
        assert loss < 1e-3

    def test_gradient_matches_finite_diff(self, rng):
        from dgkan.losses import align_loss
        proj, feats = _projection(rng, d_f=4)
        # move off the zero-W point so gradients are generic
        vec = proj.layer.param_vector()
        vec[:16] = rng.normal(scale=0.3, size=16)
        proj.layer.set_param_vector(vec)
        t = rng.normal(size=(5, 4))
        s = rng.normal(size=(5, 4))
        out, cache = proj.apply_cached(t)
        _, dP = align_loss(out, s)
        _, grads = proj.layer.backward(dP, cache)

        def f(v):
            probe = KdcpProjection.init(np.zeros((1, 4)) + 1.0, 4, 2)
            probe.layer.set_param_vector(v)
            return align_loss(probe.apply(t), s)[0]

        gradcheck(f, proj.layer.param_vector(), grads)

    @pytest.mark.parametrize("N", [1, 64, 500])
    def test_backward_keeps_cache(self, N, rng):
        # apply_cached adds the residual into the layer's output, so that
        # output must not be an array the cache holds
        proj, _ = _projection(rng, d_f=16)
        proj.layer.set_param_vector(proj.layer.param_vector()
                                    + rng.normal(scale=0.1, size=proj.layer.n_params()))
        assert_backward_keeps_cache(proj.apply_cached, proj.layer.backward,
                                    rng.normal(size=(N, 16)), rng.normal(size=(N, 16)))

    def test_shape_mismatch(self, rng):
        proj, feats = _projection(rng)
        with pytest.raises(ContractViolation):
            train_projection_step(proj, feats, feats[:, :3], AdamState.init(proj.layer.n_params(), lr=5e-4))


class TestProjectMemory:
    def _memory(self, rng, space_task=1):
        F = rng.normal(size=(12, 6))
        d = np.tile([0, 1], 6)
        return FeatureMemory(features=F, domain_class=d, budget=20, space_task=space_task)

    def test_identity_projection_preserves_rows(self, rng):
        mem = self._memory(rng)
        proj, _ = _projection(rng)
        out = project_memory(mem, proj)
        assert np.array_equal(out.features, mem.features)
        assert out.space_task == 2

    def test_exactly_once_per_transition(self, rng):
        mem = self._memory(rng)
        proj, _ = _projection(rng)
        once = project_memory(mem, proj)
        with pytest.raises(ContractViolation, match="already applied"):
            project_memory(once, proj)

    def test_rows_match_scalar_oracle(self, rng):
        mem = self._memory(rng)
        proj, _ = _projection(rng)
        vec = proj.layer.param_vector()
        vec[:36] = rng.normal(scale=0.4, size=36)
        proj.layer.set_param_vector(vec)
        out = project_memory(mem, proj)
        layer = proj.layer
        for i in range(len(mem)):
            row = mem.features[i]
            expect = row.copy()
            for o in range(6):
                acc = 0.0
                for j in range(6):
                    g = layer.group_of[j]
                    z = (row[j] - layer.centers[g]) / layer.widths[g]
                    acc += layer.W[o, j] * math.exp(-0.5 * z * z)
                expect[o] += acc
            assert np.allclose(out.features[i], expect, atol=1e-12)


class TestAugment:
    def _memory(self, rng):
        F = np.vstack([rng.normal(loc=2.0, size=(20, 4)), rng.normal(loc=-3.0, size=(20, 4))])
        d = np.repeat([0, 1], 20)
        return FeatureMemory(features=F, domain_class=d, budget=64, space_task=1)

    def test_zero_jitter_reproduces_rows(self, rng):
        mem = self._memory(rng)
        batch = augment_features(mem, 0.0, rng.substream("a"),
                                 n_samples=30)
        for i in range(30):
            match = np.any(np.all(mem.features == batch.features[i], axis=1))
            assert match

    def test_sample_mean_near_label_mean(self, rng):
        mem = self._memory(rng)
        batch = augment_features(mem, 0.5, rng.substream("b"),
                                 n_samples=10_000)
        for label in (0, 1):
            stored = mem.features[mem.domain_class == label]
            drawn = batch.features[batch.domain_class == label]
            se = drawn.std(axis=0) / np.sqrt(len(drawn))
            assert np.all(np.abs(drawn.mean(axis=0) - stored.mean(axis=0)) < 3.0 * se + 1e-9)

    def test_labels_subset_of_memory(self, rng):
        mem = self._memory(rng)
        batch = augment_features(mem, 0.5, rng.substream("c"), n_samples=64)
        assert set(np.unique(batch.domain_class)) <= set(np.unique(mem.domain_class))

    def test_deterministic_given_stream(self, rng):
        mem = self._memory(rng)
        a = augment_features(mem, 0.5, RngStream(5), n_samples=16)
        b = augment_features(mem, 0.5, RngStream(5), n_samples=16)
        assert np.array_equal(a.features, b.features)


def _augment_reference(mem, jitter_scale, rng, n_samples):
    """augment_features with one np.std call per label and a per-row stack."""
    stds = {int(l): mem.features[mem.domain_class == l].std(axis=0)
            for l in np.unique(mem.domain_class)}
    idx = rng.integers(0, len(mem), size=n_samples)
    feats = mem.features[idx].copy()
    noise = rng.normal(size=feats.shape)
    feats += jitter_scale * np.stack([stds[int(l)] for l in mem.domain_class[idx]]) * noise
    return feats, mem.domain_class[idx]


class TestAugmentMatchesPerLabelStd:
    @pytest.mark.parametrize("rows,labels,d_f", [(41, 6, 4), (500, 8, 16), (4000, 20, 16),
                                                 (4000, 2, 3)])
    def test_exact_bytes(self, rows, labels, d_f, rng):
        r = rng.substream("mem", rows, labels)
        dc = r.integers(0, labels, rows)
        dc[dc == 1] = 0                       # a gap: label 1 never occurs
        dc[0] = labels + 1                    # a one-row label beyond the gap
        F = r.normal(loc=r.uniform(-50, 50), scale=r.uniform(0.1, 20), size=(rows, d_f))
        mem = FeatureMemory(features=F, domain_class=dc, budget=rows, space_task=1)
        batch = augment_features(mem, 0.7, RngStream(9), n_samples=256)
        feats, drawn_dc = _augment_reference(mem, 0.7, RngStream(9), 256)
        assert batch.features.tobytes() == feats.tobytes()
        assert np.array_equal(batch.domain_class, drawn_dc)

    def test_negative_domain_class_rejected(self, rng):
        # rejected where the memory is built, before any replay draws from it
        dc = np.array([0, -1, 1])
        with pytest.raises(ContractViolation, match="domain-class"):
            FeatureMemory(features=rng.normal(size=(3, 4)), domain_class=dc, budget=3,
                          space_task=1)

    def test_layout_built_once_serves_every_view(self, rng):
        # a trainer hands every step the one memory plus its rows moved by the
        # live projection; the memory builds its layout on first use and keeps
        # it, and a fresh memory holding the moved rows draws the same bytes
        r = rng.substream("views")
        dc = r.integers(0, 6, 300)
        mem = FeatureMemory(features=r.normal(size=(300, 16)), domain_class=dc, budget=300,
                            space_task=1)
        assert "label_layout" not in vars(mem)
        for step in range(3):
            moved = mem.features * (1.0 + step) + step
            a = augment_features(mem, 0.5, RngStream(step), n_samples=64, features=moved)
            if step == 0:
                layout = vars(mem)["label_layout"]
            assert mem.label_layout is layout
            view = replace(mem, features=moved)
            b = augment_features(view, 0.5, RngStream(step), n_samples=64)
            assert a.features.tobytes() == b.features.tobytes()
            assert np.array_equal(a.domain_class, b.domain_class)
        with pytest.raises(ContractViolation, match="shape"):
            augment_features(mem, 0.5, rng, n_samples=4, features=mem.features[:-1])
        bad = mem.features.copy()
        bad[7, 3] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            augment_features(mem, 0.5, rng, n_samples=4, features=bad)


class TestMemorySnapshot:
    def test_round_trip(self, rng, tmp_path):
        # no dgkan code reads a snapshot back; this parse checks what it holds
        F = rng.normal(size=(9, 5))
        d = np.array([0, 0, 1, 1, 2, 2, 3, 3, 3])
        mem = FeatureMemory(features=F, domain_class=d, budget=20, space_task=2)
        path = tmp_path / "mem.csv"
        save_memory(mem, path)
        meta, header, *rows = path.read_text().splitlines()
        assert meta == "dgkan_memory,version=1,space_task=2,budget=20,d_f=5,rows=9"
        assert header.split(",") == ["f0", "f1", "f2", "f3", "f4", "domain_class", "label",
                                     "source_task"]
        fields = [row.split(",") for row in rows]
        back = np.array([[float(v) for v in row[:5]] for row in fields])
        assert back.tobytes() == mem.features.tobytes()
        assert [row[5:] for row in fields] == [[str(c), str(c % 2), str(c // 2 + 1)] for c in d]

    def test_saved_inputs_are_not_written(self, rng, tmp_path):
        F = rng.normal(size=(3, 2))
        plain, with_inputs = (FeatureMemory(features=F, domain_class=[0, 1, 1], budget=5,
                                            space_task=1, inputs=inputs)
                              for inputs in (None, rng.normal(size=(3, 8))))
        save_memory(plain, tmp_path / "a.csv")
        save_memory(with_inputs, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestDriftCompensation:
    def test_affine_drift_compensated_on_held_out_samples(self):
        rng = RngStream(99)
        teacher = FeatureExtractor.init(8, 16, 64, rng.substream("t"))
        angle = 0.08
        R = np.eye(16)
        for (i, j) in ((0, 1), (2, 3), (4, 5)):
            c, s = np.cos(angle), np.sin(angle)
            plane = np.eye(16)
            plane[i, i] = c; plane[i, j] = -s; plane[j, i] = s; plane[j, j] = c
            R = plane @ R
        shift = rng.substream("shift").normal(scale=0.3, size=16)

        def student(X):
            return teacher.forward(X) @ R.T + shift

        Xtrain = rng.substream("x").normal(scale=1.5, size=(2000, 8))
        Xheld = rng.substream("xh").normal(scale=1.5, size=(500, 8))
        Ft = teacher.forward(Xtrain)
        proj = KdcpProjection.init(Ft, groups=16, target_task=2)
        opt = AdamState.init(proj.layer.n_params(), lr=5e-4)
        batches = rng.substream("batches")
        for _ in range(4000):
            idx = batches.integers(0, 2000, size=64)
            train_projection_step(proj, Ft[idx], student(Xtrain[idx]), opt)
        before = np.linalg.norm(teacher.forward(Xheld) - student(Xheld), axis=1).mean()
        after = np.linalg.norm(proj.apply(teacher.forward(Xheld)) - student(Xheld), axis=1).mean()
        assert after < 0.10 * before
