"""Domain-incremental training orchestration plus the Acc / AUC / average
forgetting metrics and the per-(train step, eval task) score grid.

Per-task flow (the detector head grows one grouped-RBF layer per domain;
baseline heads keep one global parameter set):

* task start: one forward of the new task's inputs places the new head layer
  and the RBFs of a fresh identity projection for the incoming transition
  (over those features and the stored memory);
* task 1 trains on classification (plus within-task contrastive separation
  when enabled); later tasks add the replay-separation and feature
  distillation terms and train the drift projection concurrently;
* task end: re-project the stored memory through the trained projection
  (exactly once per transition) and merge-select current-task features into
  the memory under the global budget.  The teacher (the extractor's snapshot
  at the task's start), the projection and the optimizers end with the task.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fskdcp import (FeatureMemory, KdcpProjection, augment_features, domain_class,
                     project_memory, select_features, train_projection_step)
from .kanheads import (DgkdHead, FeatureExtractor, add_task_layer, make_baseline_head)
from .losses import (DomainLabeledBatch, bce_loss, kd_loss, overall_loss, supcon_loss)
from .numcore import AdamState, ContractViolation, RngStream, check_finite
from .synthbench import TaskStream, dataset

HEADS = ("dgkd", "mlp", "groupkan")


class ConfigError(ContractViolation):
    """A config value breaks a rule of the trainer or of the experiment."""


@dataclass
class TrainerConfig:
    """Every knob of one training run; the defaults are the reference run.

    ``validate`` holds every rule on these fields; ``Trainer`` runs it before
    it builds anything, and ``dgkan.cli.validate_config`` before its own.
    """

    head: str = "dgkd"                   # dgkd | mlp | groupkan
    use_sc: bool = True
    use_kd: bool = True
    use_kdcp: bool = True
    use_raw_replay: bool = False
    lambda_sc: float = 2.0
    lambda_kd: float = 1.0
    tau: float = 0.1
    d_x: int = 8
    d_f: int = 16
    groups: int = 4
    hidden: int = 64
    mlp_hidden: int = 32                 # hidden width of both baseline heads
    memory_budget: int = 500
    epochs: int = 40
    batch_size: int = 64
    # replay jitter std per label, as a multiple of that label's std over the
    # stored rows; 0 replays stored rows exactly
    jitter_scale: float = 0.5
    main_lr: float = 2e-4
    proj_lr: float = 5e-4

    def validate(self) -> None:
        """Raise ConfigError naming the first field that breaks its rule.
        Every field, a subclass's too, must hold exactly its declared type (an
        int is not a float, a bool is not an int, a numpy scalar is neither).
        Then ``TrainerConfig``'s own: every float must be finite and every int
        counts something, so it must be at least 1.  Any ``d_x`` trains; the
        stream's rules and a subclass's values are ``dgkan.cli.validate_config``'s.
        """
        for f in fields(self):
            val = getattr(self, f.name)
            if type(val).__name__ != f.type:
                raise ConfigError(f"config field {f.name!r}: must be of type {f.type}, "
                                  f"got {type(val).__name__} {val!r}")
        if self.head not in HEADS:
            raise ConfigError(f"config field 'head': must be one of {HEADS}, got {self.head!r}")
        for f in fields(TrainerConfig):
            val = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(val):
                raise ConfigError(f"config field {f.name!r}: must be finite, got {val!r}")
            if f.type == "int" and val < 1:
                raise ConfigError(f"config field {f.name!r}: must be >= 1")
        for name in ("tau", "main_lr", "proj_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"config field {name!r}: must be > 0")
        for name in ("lambda_sc", "lambda_kd", "jitter_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config field {name!r}: must be >= 0")
        if self.groups > self.d_f:
            raise ConfigError("config field 'groups': must not exceed d_f")
        if self.head == "groupkan" and self.mlp_hidden < self.d_f:
            # the hidden groupkan layer splits its mlp_hidden inputs into d_f groups
            raise ConfigError("config field 'mlp_hidden': the groupkan head needs at least d_f")


class Trainer:
    """Single-writer trainer state for one domain-incremental run."""

    def __init__(self, cfg: TrainerConfig, seed: int):
        cfg.validate()
        self.cfg = cfg
        self.rng = RngStream(seed).substream("trainer")
        self.extractor = FeatureExtractor.init(cfg.d_x, cfg.d_f, cfg.hidden,
                                               self.rng.substream("extractor-init"))
        if cfg.head == "dgkd":
            self.head = DgkdHead(cfg.d_f, 1, cfg.groups)
        else:   # groupkan: one rational group per feature dimension in both layers
            self.head = make_baseline_head(cfg.head, cfg.d_f, 1,
                                           self.rng.substream("head-init"),
                                           hidden=cfg.mlp_hidden, groups=cfg.d_f)
        self.memory: FeatureMemory | None = None
        self.task = 0

    def _inputs(self, X: np.ndarray, what: str) -> np.ndarray:
        """``X`` as a float64 array, which must be finite and (N, d_x);
        ContractViolation names ``what`` otherwise."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.cfg.d_x:
            raise ContractViolation(f"{what} must have shape (N, {self.cfg.d_x}), got {X.shape}")
        return check_finite(X, what)

    # -- training ------------------------------------------------------------

    def train_task(self, X: np.ndarray, y: np.ndarray) -> None:
        """Train on one task's data and run the transition bookkeeping.

        ``X`` must be a finite (N, d_x) array and ``y`` N labels, each 0 or 1,
        with both present, and the memory budget must hold a row of every
        domain-class seen so far; a call that breaks this raises
        ContractViolation before any state changes.
        """
        X = self._inputs(X, "task inputs")
        y = check_labels(y, X.shape[0], "task labels")
        check_memory_budget(self.cfg.memory_budget, self.task + 1)
        self.task += 1
        self._end_of_task(X, y, self._train_epochs(X, y))

    def _train_epochs(self, X: np.ndarray, y: np.ndarray) -> KdcpProjection | None:
        """The task's start and every training step; returns the projection
        it trained, if any.  The task-start features of ``X`` live in this
        frame through every step and end with it, before herding allocates."""
        cfg, t = self.cfg, self.task
        rng_task = self.rng.substream("task", t)
        dgkd = isinstance(self.head, DgkdHead)
        kdcp = t >= 2 and cfg.use_kdcp and not cfg.use_raw_replay
        teacher = self.extractor.snapshot() if t >= 2 and (cfg.use_kd or kdcp) else None
        # one forward serves both, and nothing has trained since the snapshot
        feats = self.extractor.forward(X) if dgkd or kdcp else None
        if dgkd:
            add_task_layer(self.head, feats, rng_task.substream("layer-init"))

        projection = proj_opt = None
        if kdcp:
            # RBFs over the old space, one group per feature dimension.
            # ``feats`` stays alive through the steps: freeing it here let
            # glibc trim and regrow the heap on every training step (tens
            # of times the page faults of a four-task-mlp run).
            projection = KdcpProjection.init(np.vstack([feats, self.memory.features]),
                                             cfg.d_f, target_task=t)
            proj_opt = AdamState.init(projection.layer.n_params(), lr=cfg.proj_lr)

        opt_ext = AdamState.init(self.extractor.n_params(), lr=cfg.main_lr)
        opt_head = AdamState.init(self.head.n_params(), lr=cfg.main_lr)

        n = X.shape[0]
        rng_batch = rng_task.substream("batches")
        rng_replay = rng_task.substream("replay")
        for _ in range(cfg.epochs):
            order = rng_batch.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                self._train_step(X[idx], y[idx], teacher, projection, proj_opt,
                                 opt_ext, opt_head, rng_replay)
        return projection

    def _train_step(self, xb: np.ndarray, yb: np.ndarray, teacher: FeatureExtractor | None,
                    projection: KdcpProjection | None, proj_opt: AdamState | None,
                    opt_ext: AdamState, opt_head: AdamState, rng_replay: RngStream) -> None:
        """One Adam step of extractor and head on a batch (and of ``projection``
        when given); ``teacher`` is given when KD or the projection reads it.
        Raw replay rows pass through the extractor after the batch rows and
        get only the contrastive gradient; data-free replay rows are
        constants that join only the contrastive batch."""
        cfg = self.cfg
        nb = xb.shape[0]
        X_in, dc_in = xb, domain_class(self.task, yb)
        if cfg.use_raw_replay and self.memory is not None:
            ridx = rng_replay.integers(0, len(self.memory), size=nb)
            X_in = np.vstack([xb, self.memory.inputs[ridx]])
            dc_in = np.concatenate([dc_in, self.memory.domain_class[ridx]])
        F_in, cache_ext = self.extractor.forward_cached(X_in)
        F = F_in[:nb]

        teacher_F = None if teacher is None else teacher.forward(xb)
        if projection is not None:
            train_projection_step(projection, teacher_F, F, proj_opt)

        logits, cache_head = self.head.forward_cached(F)
        cls, dlogits = bce_loss(logits, yb)
        dF_head, head_grads = self.head.backward(dlogits.reshape(nb, 1), cache_head)

        dF_in = np.zeros_like(F_in)
        dF_in[:nb] = dF_head
        sc = 0.0
        if cfg.use_sc:
            sc_feats, sc_dc = F_in, dc_in
            if self.memory is not None and not cfg.use_raw_replay:
                # the live projection tracks the stored rows into the current
                # space; the exactly-once re-projection waits for the transition
                rb = augment_features(self.memory, cfg.jitter_scale, rng_replay, n_samples=nb,
                                      features=None if projection is None
                                      else projection.apply(self.memory.features))
                sc_feats = np.vstack([F_in, rb.features])
                sc_dc = np.concatenate([dc_in, rb.domain_class])
            # the loss needs two labels and a label that occurs twice (an
            # anchor with a positive); a one-row last batch plus one replayed
            # row of another domain-class has two labels but no positive.
            # Codes are >= 0, so bincount counts the labels without a sort.
            if 2 <= np.count_nonzero(np.bincount(sc_dc)) < len(sc_dc):
                batch = DomainLabeledBatch(features=sc_feats, domain_class=sc_dc)
                sc, dF_sc = supcon_loss(batch, cfg.tau, grad_rows=len(dF_in))
                dF_sc *= cfg.lambda_sc           # scaled in the loss's own buffer
                dF_in += dF_sc

        kd = 0.0
        if cfg.use_kd and teacher is not None:
            kd, dF_kd = kd_loss(teacher_F, F)
            dF_kd *= cfg.lambda_kd
            dF_in[:nb] += dF_kd

        overall_loss(cls, sc, kd, cfg.lambda_sc, cfg.lambda_kd)   # raises ContractViolation on a non-finite total

        _, ext_grads = self.extractor.backward(dF_in, cache_ext)

        self.extractor.adam_update(ext_grads, opt_ext)
        self.head.adam_update(head_grads, opt_head)

    def _end_of_task(self, X: np.ndarray, y: np.ndarray, projection: KdcpProjection | None) -> None:
        """Keep the herding selection of one pool: old memory rows, then this
        task's.  The old rows are the stored features (re-projected first
        through the task's ``projection``, if any), or with raw replay the
        stored inputs through the current extractor, whose raw rows follow."""
        t, raw_replay = self.task, self.cfg.use_raw_replay
        pool_F, pool_dc, pool_X = self.extractor.forward(X), domain_class(t, y), X
        # every row is in task t's space, or (0) an unprojected data-free merge
        # left each row in its source task's space
        space_task = t if self.memory is None or raw_replay or projection is not None else 0
        if projection is not None:
            self.memory = project_memory(self.memory, projection)
        if self.memory is not None:
            old_F = self.extractor.forward(self.memory.inputs) if raw_replay else self.memory.features
            pool_F = np.vstack([old_F, pool_F])
            pool_dc = np.concatenate([self.memory.domain_class, pool_dc])
            if raw_replay:
                pool_X = np.vstack([self.memory.inputs, X])
        self.memory = select_features(pool_F, pool_dc, self.cfg.memory_budget, space_task,
                                      inputs=pool_X if raw_replay else None)

    # -- evaluation ----------------------------------------------------------

    def scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probability scores and logits for one eval set, a finite (N, d_x)
        array; other inputs raise ContractViolation before any forward."""
        F = self.extractor.forward(self._inputs(X, "eval inputs"))
        logits = self.head.forward(F).ravel()
        with np.errstate(over="ignore"):   # exp overflow below -709 gives the exact limit 0
            probs = 1.0 / (1.0 + np.exp(-logits))
        return probs, logits

    def evaluate_all(self, eval_sets: list[tuple[np.ndarray, np.ndarray]]) -> tuple[list[float], list[float]]:
        """Deterministic (acc, auc) per seen task, in task order.

        Each set is a finite (N, d_x) array and N labels, each 0 or 1, with
        both present; a bad set raises ContractViolation before any forward.
        """
        checked = []
        for Xe, ye in eval_sets:
            Xe = self._inputs(Xe, "eval inputs")
            checked.append((Xe, check_labels(ye, Xe.shape[0], "eval labels")))
        accs, aucs = [], []
        for Xe, ye in checked:
            probs, logits = self.scores(Xe)
            accs.append(accuracy(logits, ye))
            aucs.append(auc(probs, ye))
        return accs, aucs


# -- metrics ------------------------------------------------------------------


def accuracy(logits, labels) -> float:
    """Percentage of correct decisions at probability 0.5 (logit 0)."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if z.size == 0:
        raise ContractViolation("accuracy on empty input")
    if z.shape != y.shape:
        raise ContractViolation("accuracy length mismatch")
    pred = (z > 0.0).astype(np.int64)
    return float((pred == y).mean() * 100.0)


def auc(scores, labels) -> float:
    """Mann-Whitney statistic via rank summation, as a percentage.

    Ties get the average rank, which credits half a win per tied pair;
    requires both classes present.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if s.shape != y.shape:
        raise ContractViolation("auc length mismatch")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ContractViolation("auc requires both classes present")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # runs of equal scores span sorted positions [start, end); their 1-based
    # ranks start + 1 .. end average to (start + end + 1) / 2, exact in float64
    bounds = np.concatenate(([0], np.flatnonzero(sorted_s[1:] != sorted_s[:-1]) + 1, [s.size]))
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    r_pos = ranks[y == 1].sum()
    u = r_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg) * 100.0)


@dataclass
class ScoreMatrix:
    """Lower-triangular grids of per-task scores after each training step."""

    acc_rows: list[list[float]] = field(default_factory=list)
    auc_rows: list[list[float]] = field(default_factory=list)

    def add_row(self, accs: list[float], aucs: list[float]) -> None:
        t = len(self.acc_rows) + 1
        if len(accs) != t or len(aucs) != t:
            raise ContractViolation(f"row {t} must contain exactly {t} entries")
        self.acc_rows.append([float(v) for v in accs])
        self.auc_rows.append([float(v) for v in aucs])

    def rows(self, metric: str) -> list[list[float]]:
        if metric == "acc":
            return self.acc_rows
        if metric == "auc":
            return self.auc_rows
        raise ContractViolation(f"unknown metric {metric!r}")

    @property
    def num_steps(self) -> int:
        return len(self.acc_rows)

    def row(self, i: int, metric: str = "acc") -> list[float]:
        """Scores of the model after task i on tasks 1..i (1-based, checked)."""
        rows = self.rows(metric)
        if not 1 <= i <= len(rows):
            raise ContractViolation(f"no row for task {i}: the grid has {len(rows)} rows")
        return rows[i - 1]

    def entry(self, i: int, j: int, metric: str = "acc") -> float:
        """Score of the model after task i on task j (1-based, j <= i)."""
        if not 1 <= j <= i:
            raise ContractViolation(f"no entry for task {j} in row {i}")
        return self.row(i, metric)[j - 1]


def average_forgetting(matrix: ScoreMatrix, t: int, metric: str = "acc") -> float:
    """Mean drop over previous tasks: (1/(t-1)) sum_i first_i - last_i.

    first_i is the diagonal entry (task i right after learning it), last_i
    the entry after task t; undefined before the second task.
    """
    if t < 2:
        raise ContractViolation("AF undefined for first task")
    last = matrix.row(t, metric)
    return float(sum(matrix.row(i, metric)[i - 1] - last[i - 1] for i in range(1, t)) / (t - 1))


def average_accuracy(matrix: ScoreMatrix, t: int, metric: str = "acc") -> float:
    """Mean score over all tasks seen after learning task t."""
    return float(np.mean(matrix.row(t, metric)))


def check_labels(y, n: int, what: str) -> np.ndarray:
    """``y`` as int64 labels; ContractViolation names ``what`` unless it holds
    ``n`` labels, each 0 or 1, with both present.

    The rule compares with 0 and 1 instead of calling ``np.unique``, which
    imports all of ``numpy.ma`` in numpy 2 (for ``np.ma.is_masked``): nothing
    else in a run needs that module.
    """
    y = np.asarray(y)
    if y.shape != (n,):
        raise ContractViolation(f"{what} must have shape ({n},), got {y.shape}")
    zero, one = y == 0, y == 1
    if not (zero | one).all() or not zero.any() or not one.any():
        raise ContractViolation(f"{what} must be 0 or 1, with both classes present")
    return y.astype(np.int64)


def check_memory_budget(budget: int, num_tasks: int) -> None:
    """Raise ConfigError unless ``budget`` keeps one row for each of the 2T
    domain-classes of a ``num_tasks``-task stream, as the last herding needs."""
    if budget < 2 * num_tasks:
        raise ConfigError(f"config field 'memory_budget': must be >= {2 * num_tasks}, one row "
                          f"per domain-class of a {num_tasks}-task stream")


def run_stream(stream: TaskStream, cfg: TrainerConfig) -> tuple[ScoreMatrix, Trainer]:
    """Train through a task stream, evaluating all seen tasks after each one;
    the trainer is seeded with the stream's seed."""
    check_memory_budget(cfg.memory_budget, len(stream))
    trainer = Trainer(cfg, stream.seed)
    matrix = ScoreMatrix()
    eval_sets = []
    for t in range(len(stream)):
        Xtr, ytr = dataset(stream, t, "train")
        eval_sets.append(dataset(stream, t, "eval"))
        trainer.train_task(Xtr, ytr)
        accs, aucs = trainer.evaluate_all(eval_sets)
        matrix.add_row(accs, aucs)
    return matrix, trainer
