import math
import os
import re
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkan import continual
from dgkan.cli import ExperimentConfig, validate_config
from dgkan.continual import (ConfigError, ScoreMatrix, Trainer, TrainerConfig, accuracy, auc,
                             average_accuracy, average_forgetting, run_stream)
from dgkan.fskdcp import augment_features, domain_class, train_projection_step
from dgkan.kanheads import GrKanHead, MlpHead
from dgkan.losses import DomainLabeledBatch, bce_loss, kd_loss, overall_loss, supcon_loss
from dgkan.numcore import ContractViolation, RngStream, adam_step
from dgkan.synthbench import dataset, gen_sequence

from conftest import peak_alloc_bytes


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([2.0, -3.0, 1.0], [1, 0, 1]) == 100.0

    def test_complement_symmetry(self, rng):
        z = rng.normal(size=50)
        y = rng.integers(0, 2, 50)
        assert accuracy(z, y) + accuracy(z, 1 - y) == pytest.approx(100.0)

    def test_matches_naive_loop(self, rng):
        z = rng.normal(size=200)
        y = rng.integers(0, 2, 200)
        correct = sum(1 for zi, yi in zip(z, y) if (1 if zi > 0 else 0) == yi)
        assert accuracy(z, y) == pytest.approx(correct / 200 * 100.0)

    def test_empty_input(self):
        with pytest.raises(ContractViolation):
            accuracy([], [])

    @pytest.mark.parametrize("bad", [0.5, 2])
    def test_label_outside_zero_one_rejected(self, bad):
        # a cast truncated 0.5 to 0, and a label 2 counted as a miss
        with pytest.raises(ContractViolation, match="accuracy labels must be 0 or 1"):
            accuracy([2.0, -3.0, 1.0], [1, 0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_logit_rejected(self, bad):
        # a NaN logit is not > 0, so it counted as a "real" prediction
        with pytest.raises(ContractViolation, match="accuracy logits contains non-finite"):
            accuracy([2.0, bad, 1.0], [1, 0, 1])


def auc_pair_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg)) * 100.0


def auc_rank_sum_reference(scores, labels):
    """The rank-sum form ``auc`` replaced: the positives' averaged ranks
    minus n_pos (n_pos + 1) / 2, kept verbatim in its arithmetic."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    bounds = np.concatenate(([0], np.flatnonzero(sorted_s[1:] != sorted_s[:-1]) + 1, [s.size]))
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    r_pos = ranks[y == 1].sum()
    u = r_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg) * 100.0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8], [1, 0]) == 100.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 50.0

    def test_single_class_error(self):
        with pytest.raises(ContractViolation):
            auc([0.1, 0.9], [1, 1])

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_counting_exactly(self, seed):
        r = RngStream(seed)
        n = int(r.integers(2, 101))
        # quantized scores force ties
        scores = np.round(r.uniform(0, 1, n), 1)
        labels = r.integers(0, 2, n)
        if labels.min() == labels.max():
            return
        assert auc(scores, labels) == auc_pair_oracle(scores.tolist(), labels.tolist())

    @pytest.mark.parametrize("kind", ["random", "tied", "saturated"])
    def test_matches_rank_sum_form_bytes(self, kind):
        # the win count and the rank sum both reach U exactly, so their bytes agree
        r = RngStream(83).substream("auc", kind)
        saturated = 0
        for trial in range(300):
            n = int(r.integers(2, 600))
            if kind == "random":
                scores = r.uniform(0, 1, n)
            elif kind == "tied":
                scores = np.round(r.uniform(0, 1, n), int(r.integers(0, 3)))
            else:   # sigmoid scores, saturated at exactly 0 and 1
                with np.errstate(over="ignore"):
                    scores = 1.0 / (1.0 + np.exp(-r.normal(scale=400.0, size=n)))
            labels = r.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            got, ref = auc(scores, labels), auc_rank_sum_reference(scores, labels)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
            saturated += bool((scores == 0.0).any() and (scores == 1.0).any())
        # the sigmoid sets do reach the exact limits 0 and 1
        assert kind != "saturated" or saturated > 200

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ContractViolation, match="auc scores contains non-finite"):
            auc([0.2, bad, 0.7], [0, 1, 1])

    def test_label_outside_zero_one_rejected(self):
        # the rank sum would rank a label-2 row among the others; the count ignores it
        with pytest.raises(ContractViolation, match="auc labels must be 0 or 1"):
            auc([0.2, 0.5, 0.7], [0, 2, 1])

    @pytest.mark.parametrize("bad", [0.5, 1.7, math.nan])
    def test_non_integer_label_rejected(self, bad):
        # a cast to int made 0.5 a negative and 1.7 a positive (75.0 and
        # 100.0 here), and NaN failed in numpy with a bare ValueError
        with pytest.raises(ContractViolation, match="auc labels must be 0 or 1"):
            auc([0.1, 0.9, 0.5, 0.2], [0, 1, bad, 1])


class TestAverageForgetting:
    def _matrix(self, rows):
        m = ScoreMatrix()
        for row in rows:
            m.add_row(row, row)
        return m

    def test_paper_value_three_previous_tasks(self):
        m = self._matrix([[97.68], [95.90, 90.39], [93.52, 88.83, 97.69],
                          [92.90, 87.36, 93.26, 93.03]])
        assert average_forgetting(m, 4) == pytest.approx(4.08, abs=0.01)

    def test_paper_value_two_previous_tasks(self):
        m = self._matrix([[97.68], [95.90, 90.39], [93.52, 88.83, 97.69]])
        assert average_forgetting(m, 3) == pytest.approx(2.86, abs=0.01)

    def test_paper_value_one_previous_task(self):
        m = self._matrix([[97.68], [95.90, 90.39]])
        assert average_forgetting(m, 2) == pytest.approx(1.78, abs=0.01)

    def test_no_forgetting(self):
        m = self._matrix([[90.0], [90.0, 80.0]])
        assert average_forgetting(m, 2) == 0.0

    def test_undefined_for_first_task(self):
        m = self._matrix([[97.0]])
        with pytest.raises(ContractViolation, match="AF undefined"):
            average_forgetting(m, 1)

    def test_row_shape_validation(self):
        m = ScoreMatrix()
        with pytest.raises(ContractViolation):
            m.add_row([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("i,j", [(0, 0), (2, 0), (1, 2), (2, 3), (3, 1), (-1, 1)])
    def test_entry_outside_grid_rejected(self, i, j):
        # a zero or negative index must not wrap round to the last row or entry
        m = self._matrix([[80.0], [70.0, 90.0]])
        with pytest.raises(ContractViolation, match="no (row|entry)"):
            m.entry(i, j)
        with pytest.raises(ContractViolation, match="no (row|entry)"):
            m.entry(i, j, "auc")

    @pytest.mark.parametrize("t", [0, -1, 3])
    def test_averages_outside_grid_rejected(self, t):
        m = self._matrix([[80.0], [70.0, 90.0]])
        with pytest.raises(ContractViolation, match="no row for task"):
            average_accuracy(m, t)
        if t >= 2:
            with pytest.raises(ContractViolation, match="no row for task"):
                average_forgetting(m, t)


def tiny_config(**kw):
    defaults = dict(epochs=3, memory_budget=60)
    defaults.update(kw)
    return TrainerConfig(**defaults)


def tiny_stream(seed=11, protocol="four-task"):
    return gen_sequence(protocol, seed, train_n=96, eval_n=64)


# What a Trainer keeps between tasks; the teacher, the projection and the
# optimizer states are built per task and end with it.
TRAINER_STATE = {"cfg", "rng", "extractor", "head", "memory", "task"}


class TestTrainer:
    def test_task1_structure(self):
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        X, y = dataset(stream, 0, "train")
        tr.train_task(X, y)
        assert len(tr.head.layers) == 1
        assert not tr.head.layers[0].frozen
        assert len(tr.memory) <= 60
        assert set(np.unique(tr.memory.domain_class)) == {0, 1}
        assert set(vars(tr)) == TRAINER_STATE

    def test_multi_task_structure(self):
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        for t in range(3):
            X, y = dataset(stream, t, "train")
            tr.train_task(X, y)
        assert len(tr.head.layers) == 3
        assert [l.frozen for l in tr.head.layers] == [True, True, False]
        assert set(np.unique(tr.memory.domain_class)) <= set(range(6))
        assert tr.memory.space_task == 3

    def test_single_class_task_rejected(self):
        tr = Trainer(tiny_config(), 11)
        X = np.zeros((10, 8))
        with pytest.raises(ContractViolation):
            tr.train_task(X, np.zeros(10, dtype=int))

    @pytest.mark.parametrize("bad", ["labels-0-2", "label-0.5", "nan", "inf", "columns",
                                     "length", "labels-2d", "inputs-1d", "one-class",
                                     "budget-3"])
    def test_rejected_task_leaves_state_unchanged(self, bad):
        # budget 3 holds task 1's two domain-classes but not task 2's four;
        # herding used to raise only after task 2 had trained
        stream = tiny_stream()
        tr = Trainer(tiny_config(memory_budget=3 if bad == "budget-3" else 60), 11)
        tr.train_task(*dataset(stream, 0, "train"))
        X, y = dataset(stream, 1, "train")
        X, y = X.copy(), y.astype(float)
        if bad == "labels-0-2":       # code 2 would collide with task 2's real class
            y[y == 1] = 2
        elif bad == "label-0.5":
            y[0] = 0.5
        elif bad == "nan":
            X[5, 3] = np.nan
        elif bad == "inf":
            X[0, 0] = -np.inf
        elif bad == "columns":
            X = X[:, :-1]
        elif bad == "length":
            y = y[:-1]
        elif bad == "labels-2d":
            y = y[:, None]
        elif bad == "inputs-1d":
            X = X[:, 0]
        elif bad == "one-class":
            y[:] = 1
        layers = list(tr.head.layers)
        params = [l.param_vector().tobytes() for l in layers]
        extractor = tr.extractor.param_vector().tobytes()
        memory, head = tr.memory, tr.head
        with pytest.raises(ContractViolation):
            tr.train_task(X, y)
        assert tr.task == 1 and set(vars(tr)) == TRAINER_STATE
        assert tr.head is head and tr.head.layers == layers and not layers[0].frozen
        assert [l.param_vector().tobytes() for l in layers] == params
        assert tr.extractor.param_vector().tobytes() == extractor
        assert tr.memory is memory

    @pytest.mark.parametrize("bad,message", [
        ("nan", "non-finite"), ("inf", "non-finite"),
        ("columns", r"must be an \(N, 8\) batch"), ("inputs-1d", r"must be an \(N, 8\) batch"),
        ("labels-0-2", "0 or 1"), ("label-0.5", "0 or 1"), ("label-nan", "0 or 1"),
        ("labels-one-class", "0 or 1"), ("labels-length", r"shape \(64,\)")])
    def test_bad_eval_inputs_rejected_before_any_forward(self, bad, message, monkeypatch):
        # an all-NaN eval set used to score acc 50.0 / AUC 41.8 with only a
        # RuntimeWarning; six labels set to 2 moved acc/AUC from 43.75/32.52
        # to 39.06/42.69 without an error
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        tr.train_task(*dataset(stream, 0, "train"))
        good = dataset(stream, 0, "eval")
        X, y = good[0].copy(), good[1].astype(float)
        if bad == "labels-0-2":
            y[:6] = 2
        elif bad == "label-0.5":
            y[0] = 0.5
        elif bad == "label-nan":
            y[0] = np.nan
        elif bad == "labels-one-class":
            y[:] = 0
        elif bad == "labels-length":
            y = y[:-1]
        elif bad == "nan":
            X[:] = np.nan
        elif bad == "inf":
            X[3, 1] = np.inf
        elif bad == "columns":
            X = X[:, :-1]
        elif bad == "inputs-1d":
            X = X[:, 0]

        def no_forward(_):
            raise AssertionError("forward called")

        monkeypatch.setattr(tr.extractor, "forward", no_forward)
        part = "labels" if bad.startswith("label") else "inputs"
        if part == "inputs":
            with pytest.raises(ContractViolation, match=f"eval inputs .*{message}"):
                tr.scores(X)
        # a bad set after a good one is caught before the good one's forward
        with pytest.raises(ContractViolation, match=f"eval {part} .*{message}"):
            tr.evaluate_all([good, (X, y)])

    @pytest.mark.parametrize("field,value", [("tau", 0.0), ("lambda_sc", -1.0),
                                             ("lambda_kd", -0.5), ("jitter_scale", -0.1)])
    def test_bad_config_rejected_before_training(self, field, value):
        with pytest.raises(ConfigError, match=field):
            Trainer(TrainerConfig(**{field: value}), 0)
        cfg = TrainerConfig()
        setattr(cfg, field, value)           # a value set after construction is caught too
        with pytest.raises(ConfigError, match=field):
            Trainer(cfg, 0)

    def test_any_input_width_trains(self):
        # d_x % 8 is the synthetic stream's rule, which the CLI checks; a
        # library trainer takes inputs of any width
        r = RngStream(5)
        tr = Trainer(TrainerConfig(d_x=12, epochs=2, memory_budget=40), 0)
        eval_sets = []
        for t in range(2):
            y = np.arange(48) % 2
            X = r.normal(size=(48, 12)) + 1.5 * y[:, None] + t
            tr.train_task(X, y)
            eval_sets.append((X[:32], y[:32]))
            accs, aucs = tr.evaluate_all(eval_sets)
            assert len(accs) == len(aucs) == t + 1
            assert np.all(np.isfinite(accs)) and np.all(np.isfinite(aucs))
        assert tr.task == 2 and tr.memory.features.shape[1] == tr.cfg.d_f

    def test_teacher_immutable_during_task(self, monkeypatch):
        # the teacher every step of task t reads is the extractor as task
        # t - 1 left it, and no step of the task changes it
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        teachers = []
        step = tr._train_step
        monkeypatch.setattr(tr, "_train_step",
                            lambda xb, yb, teacher, *rest: (teachers.append(teacher),
                                                            step(xb, yb, teacher, *rest)))
        for t in range(1, 4):
            start = tr.extractor.param_vector().tobytes()
            teachers.clear()
            tr.train_task(*dataset(stream, t - 1, "train"))
            if t == 1:
                assert teachers and all(teacher is None for teacher in teachers)
                continue
            assert all(teacher is teachers[0] for teacher in teachers)
            assert teachers[0].param_vector().tobytes() == start
            assert tr.extractor.param_vector().tobytes() != start

    def test_memory_exactly_once_projection_tag(self, monkeypatch):
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        projections = []
        end = tr._end_of_task
        monkeypatch.setattr(tr, "_end_of_task", lambda X, y, projection: (
            projections.append(projection), end(X, y, projection)))
        for t in range(2):
            X, y = dataset(stream, t, "train")
            tr.train_task(X, y)
        assert tr.memory.space_task == 2
        assert projections[0] is None
        assert projections[1].source_task == 1 and projections[1].target_task == 2

    def test_unprojected_merge_tagged_source_space(self):
        # data-free replay without drift compensation never moves a stored
        # row, so after task 2 the task-1 rows still live in task-1 space and
        # the merged memory is tagged 0: each row in its source task's space
        stream = tiny_stream()
        tr = Trainer(tiny_config(use_kdcp=False), 11)
        X, y = dataset(stream, 0, "train")
        tr.train_task(X, y)
        assert tr.memory.space_task == 1
        first = tr.memory.features
        X2, y2 = dataset(stream, 1, "train")
        tr.train_task(X2, y2)
        assert tr.memory.space_task == 0
        assert set(tr.memory.source_task.tolist()) == {1, 2}
        kept = tr.memory.features[tr.memory.source_task == 1]
        assert all(np.any(np.all(first == row, axis=1)) for row in kept)

    def test_one_row_last_batch_with_replay(self):
        # 65 rows in batches of 64 end each epoch on one row; from task 2 on
        # it meets one replayed row, often of another domain-class, and the
        # contrastive term is skipped rather than raising
        stream = gen_sequence("four-task", 11, train_n=65, eval_n=16)
        tr = Trainer(tiny_config(epochs=2), 11)
        for t in range(3):
            tr.train_task(*dataset(stream, t, "train"))
        assert tr.task == 3

    def test_evaluate_all_deterministic(self):
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        X, y = dataset(stream, 0, "train")
        tr.train_task(X, y)
        evs = [dataset(stream, 0, "eval")]
        assert tr.evaluate_all(evs) == tr.evaluate_all(evs)

    def test_metrics_agree_with_manual_recompute(self):
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        X, y = dataset(stream, 0, "train")
        tr.train_task(X, y)
        Xe, ye = dataset(stream, 0, "eval")
        accs, aucs = tr.evaluate_all([(Xe, ye)])
        logits = tr.scores(Xe)
        assert accs[0] == accuracy(logits, ye)
        assert aucs[0] == auc(logits, ye)

    def test_auc_ranks_saturated_logits(self, monkeypatch):
        # sigmoid(40) and sigmoid(41) both round to 1.0, so an AUC over
        # probabilities reads this perfect ranking as 50
        stream = tiny_stream()
        tr = Trainer(tiny_config(), 11)
        tr.train_task(*dataset(stream, 0, "train"))
        Xe, ye = dataset(stream, 0, "eval")
        monkeypatch.setattr(tr.head, "forward", lambda F: np.where(ye == 1, 41.0, 40.0)[:, None])
        assert tr.evaluate_all([(Xe, ye)])[1] == [100.0]

    def test_run_stream_determinism(self):
        stream = tiny_stream()
        cfg = tiny_config()
        m1, _ = run_stream(stream, cfg)
        m2, _ = run_stream(stream, cfg)
        assert m1.acc_rows == m2.acc_rows
        assert m1.auc_rows == m2.auc_rows

    def test_raw_replay_mode(self):
        stream = tiny_stream()
        cfg = tiny_config(use_raw_replay=True, use_kdcp=False)
        m, tr = run_stream(stream, cfg)
        assert tr.memory.inputs is not None
        assert tr.memory.inputs.shape == (len(tr.memory), cfg.d_x)
        assert m.num_steps == 4
        assert tr.memory.space_task == 4     # every row re-extracted by the task-4 extractor

    def test_baseline_head_modes(self):
        stream = tiny_stream()
        for kind, cls in (("mlp", MlpHead), ("groupkan", GrKanHead)):
            cfg = tiny_config(head=kind, epochs=2)
            m, tr = run_stream(stream, cfg)
            assert m.num_steps == 4
            assert type(tr.head) is cls

    def test_groupkan_learns_reversed_tasks(self):
        # four-task fakes are fake_a, fake_b, -fake_a, -fake_b: tasks 3 and 4
        # reverse tasks 1 and 2, and a head too narrow to turn its decision
        # round ends them below chance; seed 17 at reference sizes showed it
        stream = gen_sequence("four-task", 17)
        m, _ = run_stream(stream, TrainerConfig(head="groupkan"))
        diag = [m.entry(t, t) for t in range(1, 5)]
        assert min(diag) >= 90.0, diag

    def test_separated_two_task_retention(self):
        # well-separated domains: task-1 accuracy survives task 2 (>= 99%);
        # run with the anchoring losses only, as in the locality criterion
        stream = gen_sequence("two-task-separated", 11)
        cfg = TrainerConfig(use_sc=False, use_kdcp=False)
        tr = Trainer(cfg, 11)
        X1, y1 = dataset(stream, 0, "train")
        X1e, y1e = dataset(stream, 0, "eval")
        tr.train_task(X1, y1)
        acc_before = tr.evaluate_all([(X1e, y1e)])[0][0]
        X2, y2 = dataset(stream, 1, "train")
        tr.train_task(X2, y2)
        acc_after = tr.evaluate_all([(X1e, y1e)])[0][0]
        assert acc_after >= 0.99 * acc_before

    def test_average_accuracy(self):
        m = ScoreMatrix()
        m.add_row([80.0], [90.0])
        m.add_row([70.0, 90.0], [80.0, 95.0])
        assert average_accuracy(m, 2) == pytest.approx(80.0)
        assert average_accuracy(m, 2, "auc") == pytest.approx(87.5)


def reference_train_step(self, xb, yb, teacher, projection, proj_opt, opt_ext, opt_head,
                         rng_replay):
    """Frozen copy of the training step that forked on the replay mode, with
    its drift-compensation test (``t >= 2 and use_kdcp and not
    use_raw_replay``) written inline; the oracle for ``Trainer._train_step``."""
    cfg = self.cfg
    nb = xb.shape[0]
    t = self.task
    trains_projection = t >= 2 and cfg.use_kdcp and not cfg.use_raw_replay
    assert (teacher is not None) == (t >= 2 and (cfg.use_kd or trains_projection))
    assert (projection is not None) == trains_projection

    raw_replay = None
    if cfg.use_raw_replay and self.memory is not None:
        ridx = rng_replay.integers(0, len(self.memory), size=nb)
        raw_replay = (self.memory.inputs[ridx], self.memory.domain_class[ridx])

    if raw_replay is not None:
        X_full = np.vstack([xb, raw_replay[0]])
    else:
        X_full = xb
    F_full, cache_ext = self.extractor.forward_cached(X_full)
    F = F_full[:nb]

    teacher_F = None
    if t >= 2 and (cfg.use_kd or trains_projection):
        teacher_F = teacher.forward(xb)

    if proj_opt is not None:
        train_projection_step(projection, teacher_F, F, proj_opt)

    logits, cache_head = self.head.forward_cached(F)
    cls, dlogits = bce_loss(logits, yb)
    dF_head, head_grads = self.head.backward(dlogits.reshape(nb, 1), cache_head)

    dF_total = dF_head.copy()
    sc = 0.0
    dF_sc_replay = None
    if cfg.use_sc:
        dc_now = domain_class(t, yb)
        if raw_replay is not None:
            sc_feats = F_full
            sc_dc = np.concatenate([dc_now, raw_replay[1]])
        elif self.memory is not None:
            view = self.memory
            if trains_projection:
                view = replace(self.memory, features=projection.apply(self.memory.features))
            rb = augment_features(view, cfg.jitter_scale, rng_replay, n_samples=nb)
            sc_feats = np.vstack([F, rb.features])
            sc_dc = np.concatenate([dc_now, rb.domain_class])
        else:
            sc_feats = F
            sc_dc = dc_now
        if np.unique(sc_dc).size >= 2:
            batch = DomainLabeledBatch(features=sc_feats, domain_class=sc_dc)
            sc, dF_sc = supcon_loss(batch, cfg.tau)
            dF_total += cfg.lambda_sc * dF_sc[:nb]
            if raw_replay is not None:
                dF_sc_replay = cfg.lambda_sc * dF_sc[nb:]

    kd = 0.0
    if cfg.use_kd and t >= 2:
        kd, dF_kd = kd_loss(teacher_F, F)
        dF_total += cfg.lambda_kd * dF_kd

    overall_loss(cls, sc, kd, cfg.lambda_sc, cfg.lambda_kd)

    if raw_replay is not None:
        dF_full = np.vstack([dF_total, dF_sc_replay if dF_sc_replay is not None
                             else np.zeros_like(F_full[nb:])])
    else:
        dF_full = dF_total
    _, ext_grads = self.extractor.backward(dF_full, cache_ext)

    self.extractor.set_param_vector(adam_step(self.extractor.param_vector(), ext_grads, opt_ext))
    self.head.set_param_vector(adam_step(self.head.param_vector(), head_grads, opt_head))


class TestTrainStepMatchesReference:
    @pytest.mark.parametrize("kw", [{}, {"use_kdcp": False}, {"use_raw_replay": True},
                                    {"use_raw_replay": True, "use_sc": False}, {"head": "mlp"},
                                    {"labels": np.float64}, {"labels": bool}],
                             ids=["data-free", "data-free-no-kdcp", "raw", "raw-no-sc", "mlp",
                                  "float-labels", "bool-labels"])
    def test_two_tasks_exact_bytes(self, kw):
        # float 0.0/1.0 and bool labels train to the bytes of int labels
        kw = dict(kw)
        labels = kw.pop("labels", np.int64)
        stream = tiny_stream()
        cfg = tiny_config(**kw)
        new, ref = Trainer(cfg, 11), Trainer(cfg, 11)
        ref._train_step = types.MethodType(reference_train_step, ref)
        projections = {}
        for tr in (new, ref):            # the projection each task end receives
            end = tr._end_of_task

            def recording_end(X, y, projection, tr=tr, end=end):
                projections[tr] = projection
                end(X, y, projection)

            tr._end_of_task = recording_end
        for t in range(2):
            X, y = dataset(stream, t, "train")
            new.train_task(X, y.astype(labels))
            ref.train_task(X, y)

        def state(tr):
            proj = projections[tr]
            return [tr.extractor.param_vector(), tr.head.param_vector(),
                    None if proj is None else proj.layer.param_vector(),
                    tr.memory.features, tr.memory.domain_class, tr.memory.inputs]

        assert (projections[new] is None) == ("use_raw_replay" in kw or "use_kdcp" in kw)
        assert (new.memory.inputs is None) != ("use_raw_replay" in kw)
        for a, b in zip(state(new), state(ref)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


class TestStateBetweenTasks:
    @pytest.mark.parametrize("mode", [{}, {"use_kdcp": False},
                                      {"use_raw_replay": True, "use_kdcp": False}],
                             ids=["data-free", "no-kdcp", "raw"])
    @pytest.mark.parametrize("head", ["dgkd", "mlp", "groupkan"])
    def test_trainer_keeps_only_what_outlives_a_task(self, head, mode):
        stream = tiny_stream()
        tr = Trainer(tiny_config(head=head, epochs=1, **mode), 11)
        built = tr.head
        assert set(vars(tr)) == TRAINER_STATE
        for t in range(len(stream)):
            tr.train_task(*dataset(stream, t, "train"))
            assert set(vars(tr)) == TRAINER_STATE
            assert tr.head is built


class TestTransitionPeak:
    @pytest.mark.parametrize("head", ["dgkd", "mlp"])
    def test_second_task_holds_no_dead_arrays_at_the_transition(self, head):
        # the task-start features (one forward serves the new layer and the
        # projection's placement) end before herding, so the transition holds
        # the extractor's hidden buffer and pool-sized feature arrays only
        N, cfg = 4096, TrainerConfig(head=head, epochs=1, memory_budget=4000)
        stream = gen_sequence("four-task", 11, train_n=N, eval_n=64)
        tr = Trainer(cfg, 11)
        tr.train_task(*dataset(stream, 0, "train"))
        peak = peak_alloc_bytes(tr.train_task, *dataset(stream, 1, "train"))
        assert peak < N * cfg.hidden * 8 + 3 * N * cfg.d_f * 8


class TestMemoryOwnsItsInputs:
    @pytest.mark.parametrize("kw", [{}, {"use_sc": False}], ids=["raw", "raw-no-sc"])
    def test_stored_inputs_give_stored_rows_at_every_task_end(self, kw):
        stream = tiny_stream()
        tr = Trainer(tiny_config(use_raw_replay=True, use_kdcp=False, epochs=2, **kw), 11)
        for t in range(4):
            tr.train_task(*dataset(stream, t, "train"))
            assert tr.memory.inputs.shape == (len(tr.memory), tr.cfg.d_x)
            assert np.allclose(tr.extractor.forward(tr.memory.inputs), tr.memory.features,
                               rtol=1e-12, atol=1e-12)


class TestBudgetCheckedBeforeTraining:
    def test_run_stream_rejects_small_budget_before_building_a_trainer(self, monkeypatch):
        def no_trainer(*args, **kwargs):
            raise AssertionError("a Trainer was built")

        monkeypatch.setattr(continual, "Trainer", no_trainer)
        with pytest.raises(ConfigError, match="memory_budget.*>= 8"):
            run_stream(tiny_stream(), tiny_config(memory_budget=4))
        with pytest.raises(ConfigError, match="memory_budget.*>= 20"):
            run_stream(tiny_stream(protocol="ten-task"), tiny_config(memory_budget=19))

    @pytest.mark.parametrize("protocol,budget", [("four-task", 7), ("ten-task", 19),
                                                 ("two-task-overlap", 3)])
    def test_cli_and_library_share_one_rule(self, protocol, budget):
        with pytest.raises(ConfigError) as lib:
            run_stream(tiny_stream(protocol=protocol), tiny_config(memory_budget=budget))
        with pytest.raises(ConfigError) as cli:
            validate_config(ExperimentConfig(protocol=protocol, memory_budget=budget))
        assert str(lib.value) == str(cli.value)
        run_stream(tiny_stream(protocol=protocol), tiny_config(memory_budget=budget + 1, epochs=1))


RUN_AFTER_SET_UP = """
import sys
from dgkan.continual import Trainer, TrainerConfig
from dgkan.synthbench import dataset, gen_sequence

runs = []
for kw in ({}, {"head": "mlp"}, {"head": "groupkan"}, {"use_raw_replay": True}):
    stream = gen_sequence("four-task", 11, train_n=48, eval_n=32)
    sets = [dataset(stream, t, split) for t in range(2) for split in ("train", "eval")]
    runs.append((Trainer(TrainerConfig(epochs=2, memory_budget=60, **kw), 11), sets))
before = set(sys.modules)
for tr, (train1, eval1, train2, eval2) in runs:
    tr.train_task(*train1)
    tr.train_task(*train2)
    tr.evaluate_all([eval1, eval2])
print(sorted(set(sys.modules) - before))
"""


class TestRunLoadsNoModule:
    def test_training_and_evaluation_import_nothing_after_set_up(self):
        # a fresh interpreter, so that no other test's imports hide one.
        # numpy 2's np.unique calls np.ma.is_masked, which loads all of
        # numpy.ma; the run counts labels with np.bincount instead
        src = os.path.dirname(os.path.dirname(continual.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", RUN_AFTER_SET_UP], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs(capsys):
    # the README's "Library example" block, run as written (a reference run)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README.md has no python block under '## Library example'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))
