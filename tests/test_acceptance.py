"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The trend criteria (4-7) run the reference synthetic benchmarks at the fixed
reference seeds with the default method constants; runs are shared through a
module cache.  Criteria are asserted exactly as stated, at their stated
tolerances.
"""
import copy
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from dgkan.cli import (ExperimentConfig, build_stream, config_hash, parse_config_text,
                       run_experiment, trainer_config)
from dgkan import continual
from dgkan.continual import (ScoreMatrix, Trainer, TrainerConfig, accuracy, auc,
                             average_accuracy, average_forgetting, run_stream)
from dgkan.fskdcp import (KdcpProjection, herd_indices, train_projection_step)
from dgkan.kanheads import (DgkdHead, FeatureExtractor, MlpHead,
                            DgLayer, make_baseline_head)
from dgkan.losses import (DomainLabeledBatch, align_loss, bce_loss, kd_loss, supcon_loss)
from dgkan.numcore import (AdamState, RngStream, finite_diff_grad, max_rel_err)
from dgkan.synthbench import LAYOUTS, REFERENCE_SEEDS, dataset, gen_sequence

from test_losses import supcon_bruteforce
from test_fskdcp import herding_oracle
from test_continual import auc_pair_oracle
from test_kanheads import RbfParams, rbf_eval, rbf_grad

GRAD_TOL = 1e-4


def _announce(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------------
# shared benchmark runs


_RUN_CACHE: dict = {}
_POOLED: set = set()      # keys of _RUN_CACHE that a pool worker computed
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The (protocol, knobs) runs of C4-C7 at every reference seed, ten-task first
# so that the longest runs start first.  A run missing here is computed
# serially by bench_run, as before.
_TREND_RUNS = (
    [("ten-task", dict(head=h)) for h in ("dgkd", "mlp", "groupkan")]
    + [("four-task", knobs) for knobs in (
        dict(use_sc=False, use_kd=False, use_kdcp=False),
        dict(use_sc=False, use_kd=True, use_kdcp=False),
        dict(use_sc=True, use_kd=False, use_kdcp=True),
        dict(),
        dict(use_kdcp=False),
        dict(use_kdcp=False, use_raw_replay=True),
        dict(head="groupkan"),
        dict(head="mlp"),
    )])


def _score_grid(cfg: ExperimentConfig) -> ScoreMatrix:
    return run_stream(build_stream(cfg), trainer_config(cfg))[0]


def _prefill_trend_runs() -> None:
    """Compute the C4-C7 runs not yet cached in a process pool, one fresh
    process per CPU at most."""
    todo = {}
    for protocol, knobs in _TREND_RUNS:
        for seed in REFERENCE_SEEDS:
            cfg = ExperimentConfig(protocol=protocol, seed=seed, **knobs)
            key = config_hash(cfg)
            if key not in _RUN_CACHE:
                todo.setdefault(key, cfg)
    if not todo:
        return
    workers = min(os.cpu_count() or 1, len(todo))
    # spawn, not fork: forking a process whose BLAS threads are running can
    # deadlock.  One BLAS thread per worker, so that the workers do not share
    # the CPUs with each other's BLAS threads.
    one_thread = {name: "1" for name in _BLAS_THREAD_VARS}
    with mock.patch.dict(os.environ, one_thread), \
            ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {key: pool.submit(_score_grid, cfg) for key, cfg in todo.items()}
        for key, future in futures.items():
            _RUN_CACHE[key] = future.result()
            _POOLED.add(key)


def bench_run(protocol: str, seed: int, **knobs) -> ScoreMatrix:
    """The reference run (every other config field at its CLI default) with
    ``knobs`` set, e.g. ``head="mlp"`` or ``use_kdcp=False``.

    The first call fills the cache with every C4-C7 run through a process
    pool.  The pool runs the library's ``run_stream``; when a caller has
    substituted ``run_stream`` here, every run goes through the substitute.
    """
    if not _POOLED and run_stream is continual.run_stream:
        _prefill_trend_runs()
    cfg = ExperimentConfig(protocol=protocol, seed=seed, **knobs)
    key = config_hash(cfg)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key], _ = run_stream(build_stream(cfg), trainer_config(cfg))
    return _RUN_CACHE[key]


def mean_final_af(protocol: str, **kw) -> float:
    T = LAYOUTS[protocol][0]
    return float(np.mean([average_forgetting(bench_run(protocol, s, **kw), T)
                          for s in REFERENCE_SEEDS]))


def mean_final_aa(protocol: str, **kw) -> float:
    T = LAYOUTS[protocol][0]
    return float(np.mean([average_accuracy(bench_run(protocol, s, **kw), T)
                          for s in REFERENCE_SEEDS]))


# ----------------------------------------------------------------------------


def test_c01_gradient_suite():
    start = time.monotonic()
    rng = RngStream(77)
    worst = 0.0

    def check(f, x, analytic):
        nonlocal worst
        err = max_rel_err(analytic, finite_diff_grad(f, np.asarray(x, dtype=np.float64), 1e-5))
        worst = max(worst, err)
        assert err <= GRAD_TOL

    for trial in range(100):
        r = rng.substream("rbf", trial)
        x, c = r.uniform(-2, 2, 2)
        s = float(r.uniform(0.3, 1.5))
        ddx, ddc, dds = rbf_grad(float(x), RbfParams(float(c), s))
        check(lambda v: rbf_eval(float(v[0]), RbfParams(float(c), s)), [x], [ddx])
        check(lambda v: rbf_eval(float(x), RbfParams(float(v[0]), s)), [c], [ddc])
        check(lambda v: rbf_eval(float(x), RbfParams(float(c), float(v[0]))), [s], [dds])

    for trial in range(100):
        r = rng.substream("layer", trial)
        layer = DgLayer(5, 2, 2, W=r.normal(scale=0.5, size=(2, 5)),
                        centers=r.uniform(-1, 1, 2), widths=r.uniform(0.4, 1.2, 2))
        X = r.uniform(-2, 2, (3, 5))
        R = r.normal(size=(3, 2))
        _, cache = layer.forward_cached(X)
        _, grads = layer.backward(R, cache)

        def f(vec):
            probe = copy.deepcopy(layer)
            probe.set_param_vector(vec)
            return float((probe.forward(X) * R).sum())
        check(f, layer.param_vector(), grads)

    for kind in ("mlp", "groupkan"):
        for trial in range(100):
            r = rng.substream(kind, trial)
            head = make_baseline_head(kind, 4, 1, r, hidden=5, groups=2)
            X = r.uniform(-2, 2, (3, 4))
            R = r.normal(size=(3, 1))
            _, cache = head.forward_cached(X)
            _, grads = head.backward(R, cache)

            def f(vec, head=head):
                probe = copy.deepcopy(head)
                probe.set_param_vector(vec)
                return float((probe.forward(X) * R).sum())
            check(f, head.param_vector(), grads)

    for trial in range(100):
        r = rng.substream("ext", trial)
        ext = FeatureExtractor.init(4, 3, 5, r)
        X = r.uniform(-2, 2, (3, 4))
        R = r.normal(size=(3, 3))
        _, cache = ext.forward_cached(X)
        _, grads = ext.backward(R, cache)

        def f(vec):
            probe = FeatureExtractor(ext.W1, ext.b1, ext.W2, ext.b2)
            probe.set_param_vector(vec)
            return float((probe.forward(X) * R).sum())
        check(f, ext.param_vector(), grads)

    for trial in range(100):
        r = rng.substream("proj", trial)
        feats = r.normal(size=(10, 4))
        proj = KdcpProjection.init(feats, groups=4, target_task=2)
        vec = proj.layer.param_vector()
        vec[:16] = r.normal(scale=0.3, size=16)
        proj.layer.set_param_vector(vec)
        t = r.normal(size=(3, 4))
        s = r.normal(size=(3, 4))
        out, cache = proj.apply_cached(t)
        _, dP = align_loss(out, s)
        _, grads = proj.layer.backward(dP, cache)

        def f(v):
            probe = copy.deepcopy(proj)
            probe.layer.set_param_vector(v)
            return align_loss(probe.apply(t), s)[0]
        check(f, proj.layer.param_vector(), grads)

    for trial in range(100):
        r = rng.substream("loss", trial)
        z = r.uniform(-4, 4, 8)
        y = r.integers(0, 2, 8)
        _, g = bce_loss(z, y)
        check(lambda v: bce_loss(v, y)[0], z, g)

        F = r.normal(size=(6, 3))
        d = np.array([0, 0, 1, 1, 2, 2])
        _, gF = supcon_loss(DomainLabeledBatch(F, d), 0.1)
        check(lambda flat: supcon_loss(DomainLabeledBatch(flat.reshape(6, 3), d), 0.1)[0],
              F.ravel(), gF.ravel())

        tch = r.normal(size=(4, 3))
        stu = r.normal(size=(4, 3))
        _, gk = kd_loss(tch, stu)
        check(lambda flat: kd_loss(tch, flat.reshape(4, 3))[0], stu.ravel(), gk.ravel())
        _, ga = align_loss(stu, tch)
        check(lambda flat: align_loss(flat.reshape(4, 3), tch)[0], stu.ravel(), ga.ravel())

    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _announce(1, ok, f"all gradients within {GRAD_TOL} relative (worst {worst:.2e}), "
                     f"runtime {elapsed:.1f}s < 60s")
    assert ok


def test_c02_af_formula_reproduces_reported_rows():
    m = ScoreMatrix()
    for row in ([97.68], [95.90, 90.39], [93.52, 88.83, 97.69], [92.90, 87.36, 93.26, 93.03]):
        m.add_row(list(row), list(row))
    values = [average_forgetting(m, t) for t in (2, 3, 4)]
    expected = (1.78, 2.86, 4.08)
    ok = all(abs(v - e) <= 0.01 for v, e in zip(values, expected))
    _announce(2, ok, f"AF rows {[round(v, 3) for v in values]} vs {expected} within 0.01")
    assert ok


def test_c03_locality_on_separated_protocol():
    start = time.monotonic()
    seed = REFERENCE_SEEDS[0]
    stream = gen_sequence("two-task-separated", seed)
    # locality isolated from the separation machinery: the stream is already
    # separated, so the contrastive term is off and distillation anchors drift
    cfg = TrainerConfig(use_sc=False, use_kd=True, use_kdcp=False)
    tr = Trainer(cfg, seed)
    X1, y1 = dataset(stream, 0, "train")
    X1e, y1e = dataset(stream, 0, "eval")
    tr.train_task(X1, y1)
    acc_before = tr.evaluate_all([(X1e, y1e)])[0][0]
    logit_before = tr.scores(X1e)
    F_before = tr.extractor.forward(X1e)
    frozen_bytes = tr.head.layers[0].param_vector().tobytes()

    X2, y2 = dataset(stream, 1, "train")
    tr.train_task(X2, y2)
    acc_after = tr.evaluate_all([(X1e, y1e)])[0][0]
    logit_after = tr.scores(X1e)
    F_after = tr.extractor.forward(X1e)

    frozen_ok = tr.head.layers[0].param_vector().tobytes() == frozen_bytes
    l1, l2 = tr.head.layers
    tail = tr.head.d_in * np.abs(l2.W).max() * math.exp(-18.0)
    lipschitz = math.exp(-0.5) / l1.widths.min()
    allowance = np.abs(l1.W).max() * lipschitz * np.abs(F_after - F_before).sum(axis=1)
    bound_ok = bool(np.all(np.abs(logit_after - logit_before) <= tail + allowance + 1e-12))
    retention = acc_after / acc_before
    elapsed = time.monotonic() - start
    ok = frozen_ok and bound_ok and retention >= 0.99 and elapsed < 120.0
    _announce(3, ok, f"frozen={frozen_ok}, logit bound holds={bound_ok}, "
                     f"retention={retention:.4f} (>=0.99), runtime {elapsed:.1f}s < 120s")
    assert frozen_ok and bound_ok
    assert retention >= 0.99
    assert elapsed < 120.0


def test_c04_forgetting_trend_loss_ablations():
    start = time.monotonic()
    af_cls = mean_final_af("four-task", use_sc=False, use_kd=False, use_kdcp=False)
    af_kd = mean_final_af("four-task", use_sc=False, use_kd=True, use_kdcp=False)
    af_sc = mean_final_af("four-task", use_sc=True, use_kd=False, use_kdcp=True)
    af_all = mean_final_af("four-task", use_sc=True, use_kd=True, use_kdcp=True)
    elapsed = time.monotonic() - start
    checks = {
        "cls>cls+kd": af_cls > af_kd,
        "cls>cls+sc": af_cls > af_sc,
        "overall lowest": af_all <= min(af_kd, af_sc),
        "overall<=0.5*cls": af_all <= 0.5 * af_cls,
        "runtime<600s": elapsed < 600.0,
    }
    ok = all(checks.values())
    _announce(4, ok, f"AF cls={af_cls:.2f} +kd={af_kd:.2f} +sc={af_sc:.2f} overall={af_all:.2f}; "
                     f"{checks}; runtime {elapsed:.0f}s")
    assert ok, checks


def test_c05_kdcp_ablation():
    af_full = mean_final_af("four-task", use_sc=True, use_kd=True, use_kdcp=True)
    af_no_kdcp = mean_final_af("four-task", use_sc=True, use_kd=True, use_kdcp=False)
    af_replay = mean_final_af("four-task", use_sc=True, use_kd=True, use_kdcp=False,
                              use_raw_replay=True)
    checks = {
        "fs-without-kdcp > full": af_no_kdcp > af_full,
        "full within 1pp of replay": af_full <= af_replay + 1.0,
    }
    ok = all(checks.values())
    _announce(5, ok, f"AF full={af_full:.2f} no-kdcp={af_no_kdcp:.2f} replay={af_replay:.2f}; {checks}")
    assert ok, checks


def test_c06_head_comparison():
    aa = {h: mean_final_aa("four-task", head=h) for h in ("dgkd", "groupkan", "mlp")}
    af = {h: mean_final_af("four-task", head=h) for h in ("dgkd", "groupkan", "mlp")}
    checks = {
        "AA dgkd>groupkan": aa["dgkd"] > aa["groupkan"],
        "AA groupkan>=mlp": aa["groupkan"] >= aa["mlp"],
        "AF dgkd<groupkan": af["dgkd"] < af["groupkan"],
        "AF groupkan<=mlp": af["groupkan"] <= af["mlp"],
    }
    ok = all(checks.values())
    _announce(6, ok, f"AA={ {k: round(v, 2) for k, v in aa.items()} } "
                     f"AF={ {k: round(v, 2) for k, v in af.items()} }; {checks}")
    assert ok, checks


def test_c07_long_sequence():
    start = time.monotonic()
    traj = {}
    for head in ("dgkd", "mlp", "groupkan"):
        per_t = np.zeros(9)
        for seed in REFERENCE_SEEDS:
            m = bench_run("ten-task", seed, head=head)
            per_t += np.array([average_forgetting(m, t) for t in range(2, 11)])
        traj[head] = per_t / len(REFERENCE_SEEDS)
    elapsed = time.monotonic() - start
    lowest = {t: traj["dgkd"][t - 2] < min(traj["mlp"][t - 2], traj["groupkan"][t - 2])
              for t in range(5, 11)}
    ok = all(lowest.values()) and elapsed < 900.0
    _announce(7, ok, f"dgkd lowest for t>=5: {lowest}; AF@10 dgkd={traj['dgkd'][-1]:.2f} "
                     f"mlp={traj['mlp'][-1]:.2f} gk={traj['groupkan'][-1]:.2f}; runtime {elapsed:.0f}s")
    assert ok, lowest


def test_pooled_runs_match_serial():
    pooled = bench_run("four-task", REFERENCE_SEEDS[0])
    cfg = ExperimentConfig(protocol="four-task", seed=REFERENCE_SEEDS[0])
    assert config_hash(cfg) in _POOLED
    assert pooled == _score_grid(cfg)


def test_c08_oracle_equivalences():
    rng = RngStream(404)
    # contrastive loss vs brute force, including the 4-sample hand value
    F = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    hand, _ = supcon_loss(DomainLabeledBatch(F, np.array([0, 0, 1, 1])), 0.1)
    assert hand == pytest.approx(-9.30685, abs=1e-5)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 9))
        feats = rng.normal(size=(n, 3))
        d = rng.integers(0, 3, n)
        if np.unique(d).size < 2:
            continue
        try:
            loss, _ = supcon_loss(DomainLabeledBatch(feats, d), 0.1)
        except Exception:
            continue
        assert loss == pytest.approx(supcon_bruteforce(feats, d, 0.1), abs=1e-9)
        checked += 1

    # rank-based AUC vs all-pairs counting, exact
    for trial in range(50):
        n = int(rng.integers(2, 101))
        scores = np.round(rng.uniform(0, 1, n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        assert auc(scores, labels) == auc_pair_oracle(scores.tolist(), labels.tolist())

    # herding vs exhaustive greedy for <= 12 candidates
    for trial in range(30):
        n = int(rng.integers(3, 13))
        rows = rng.normal(size=(n, 3))
        quota = int(rng.integers(1, n + 1))
        assert herd_indices(rows, quota).tolist() == herding_oracle(rows, quota)

    _announce(8, True, "supcon/auc/herding match independent oracles "
                       "(1e-9 / exact / exact)")


def test_c09_drift_compensation():
    rng = RngStream(99)
    teacher = FeatureExtractor.init(8, 16, 64, rng.substream("t"))
    angle = 0.08
    R = np.eye(16)
    for (i, j) in ((0, 1), (2, 3), (4, 5)):
        c, s = np.cos(angle), np.sin(angle)
        plane = np.eye(16)
        plane[i, i] = c
        plane[i, j] = -s
        plane[j, i] = s
        plane[j, j] = c
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
    reduction = 1.0 - after / before
    ok = reduction >= 0.90
    _announce(9, ok, f"held-out mismatch reduced by {reduction * 100:.1f}% (>=90%)")
    assert ok


def test_c10_run_determinism(tmp_path):
    cfg = parse_config_text(
        "config_version = 1\nprotocol = four-task\nseed = 11\nepochs = 2\n"
        "train_samples = 96\neval_samples = 64\nmemory_budget = 60\n")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    same = (tmp_path / "a" / "scores.csv").read_bytes() == (tmp_path / "b" / "scores.csv").read_bytes()
    _announce(10, same, "repeated run produces byte-identical score CSV")
    assert same
