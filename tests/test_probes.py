import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgkan.cli import ExperimentConfig, main, run_experiment
from dgkan.continual import auc
from dgkan.kanheads import DgkdHead, DgLayer
from dgkan.numcore import ContractViolation
from dgkan.probes import (best_threshold_accuracy, bhattacharyya_overlap, centroid_probes,
                          locality_ratios, task_scores)

SRC = Path(__file__).resolve().parents[1] / "src"


class LogitColumn:
    """A stand-in head whose logits are its input's first column plus ``shift``."""

    def __init__(self, shift: float = 0.0):
        self.shift = shift

    def forward(self, F):
        return F[:, :1] + self.shift


def test_cli_import_leaves_the_probes_uncompiled():
    # every benchmark process compiles what `import dgkan.cli` imports
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, dgkan, dgkan.cli; print('dgkan.probes' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_best_threshold_accuracy_is_the_best_cut(rng):
    # logits on a grid of quarters, so that many tie
    y = np.repeat([0, 1], 50)
    z = np.concatenate([rng.integers(-8, 4, 50), rng.integers(-4, 8, 50)]) / 4.0
    cuts = np.concatenate([[-np.inf], (np.unique(z)[1:] + np.unique(z)[:-1]) / 2, [np.inf]])
    brute = max(((z > c) == y).mean() * 100.0 for c in cuts)
    assert best_threshold_accuracy(z, y) == brute
    assert best_threshold_accuracy(np.where(y == 1, 1.0, -1.0), y) == 100.0


@pytest.mark.parametrize("logits,labels,expected", [
    ([-1.0, -0.5, 0.5, 1.0], [0, 0, 1, 1], 100.0),
    ([1.0, 0.5, -0.5, -1.0], [0, 0, 1, 1], 50.0),
    ([0.0, 0.0, 0.0, 0.0], [0, 1, 1, 1], 75.0),
    ([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1], 75.0),
], ids=["separable", "reversed", "all-tied", "interleaved"])
def test_best_threshold_accuracy_by_hand(logits, labels, expected):
    assert best_threshold_accuracy(logits, labels) == expected


@pytest.mark.parametrize("logits,labels,message", [
    ([0.0, np.nan], [0, 1], "threshold logits contains non-finite entries (first at index (1,))"),
    ([np.inf, 0.0], [0, 1], "threshold logits contains non-finite entries (first at index (0,))"),
    ([0.0, -np.inf], [0, 1], "threshold logits contains non-finite entries (first at index (1,))"),
    ([0.0, 1.0], [0, 2], "threshold labels must be 0 or 1, with both classes present"),
    ([0.0, 1.0], [-1, 1], "threshold labels must be 0 or 1, with both classes present"),
    ([0.0, 1.0], [0, 0.5], "threshold labels must be 0 or 1, with both classes present"),
    ([0.0, 1.0], [1, 1], "threshold labels must be 0 or 1, with both classes present"),
    ([0.0, 1.0, 2.0], [0, 1], "threshold labels must have shape (3,), got (2,)"),
    ([], [], "threshold labels must be 0 or 1, with both classes present"),
], ids=["nan", "inf", "neg-inf", "label-2", "label-neg1", "label-half", "one-class", "short",
        "empty"])
def test_best_threshold_accuracy_rejects_bad_input(logits, labels, message):
    with pytest.raises(ContractViolation, match=re.escape(message)):
        best_threshold_accuracy(logits, labels)


def test_shifted_logits_forget_by_accuracy_only(rng):
    # old-task logits that only move by a constant: accuracy at logit 0
    # drops, the best threshold and the ranking do not
    y = np.repeat([0, 1], 64)
    z = (np.concatenate([rng.integers(-12, 2, 64), rng.integers(-2, 12, 64)]) / 4.0)[:, None]
    before, after = (task_scores(LogitColumn(shift), [z], [y])[0] for shift in (0.0, 3.0))
    assert before["acc"] - after["acc"] > 0
    assert before["best_threshold_acc"] - after["best_threshold_acc"] == 0
    assert before["auc"] - after["auc"] == 0
    assert after["auc"] == auc(z.ravel(), y)


def _layer(features, seed, rng):
    """A one-output, two-group DG-KD layer placed over ``features``."""
    return DgLayer.from_features(features, 1, 2, rng.substream("layer", seed))


def test_prefix_head_gap_is_zero_for_one_layer_and_a_silent_layer(rng):
    F = rng.normal(size=(64, 4))
    y = np.tile([0, 1], 32)
    first = _layer(F, 0, rng)
    one = task_scores(DgkdHead(4, 1, 2, [first]), [F], [y])[0]
    assert one["prefix_head_acc"] == one["acc"]
    silent = DgLayer(4, 1, 2, W=np.zeros((1, 4)), centers=[0.0, 1.0], widths=[1.0, 1.0])
    head = DgkdHead(4, 1, 2, [first, silent])
    assert DgkdHead(4, 1, 2, [first]).forward(F).tobytes() == head.forward(F).tobytes()
    rows = task_scores(head, [F, F], [y, y])
    assert rows[0]["prefix_head_acc"] == rows[0]["acc"]


def test_locality_ratio_separated_and_identical_blobs(rng):
    near = [rng.normal(scale=0.3, size=(200, 8)) for _ in range(2)]
    apart = [near[0], near[1] + 10.0]
    for blobs, check in ((apart, lambda r: r > 1e6), (near, lambda r: abs(r - 1.0) < 0.05)):
        head = DgkdHead(8, 1, 2, [_layer(F, k, rng) for k, F in enumerate(blobs)])
        assert all(check(r) for r in locality_ratios(head, blobs))


def test_bhattacharyya_overlap_identical_and_ten_sigma_apart(rng):
    F = rng.normal(size=(500, 6))
    assert bhattacharyya_overlap([F, F.copy()]) == pytest.approx((1.0, 1.0), abs=1e-12)
    moved = F.copy()
    moved[:, 2] += 10.0 * F[:, 2].std()
    mean_bc, best_dim_bc = bhattacharyya_overlap([F, moved])
    assert best_dim_bc < 1e-5
    assert mean_bc == pytest.approx(5.0 / 6.0, abs=1e-5)


@pytest.mark.parametrize("shift,scale", [(0.5, 1.0), (2.0, 1.0), (0.0, 2.0), (1.0, 3.0)])
def test_bhattacharyya_overlap_of_two_fitted_gaussians(shift, scale, rng):
    # dimension 0 of the second domain moved by `shift` of its std and
    # stretched by `scale`: its coefficient is the closed form of two
    # Gaussians, and every other dimension's is 1
    F = rng.normal(size=(400, 5))
    moved = F.copy()
    sd = F[:, 0].std()
    moved[:, 0] = (F[:, 0] - F[:, 0].mean()) * scale + F[:, 0].mean() + shift * sd
    bc = (np.sqrt(2.0 * scale / (1.0 + scale ** 2))
          * np.exp(-shift ** 2 / (4.0 * (1.0 + scale ** 2))))
    mean_bc, best_dim_bc = bhattacharyya_overlap([F, moved])
    assert best_dim_bc == pytest.approx(bc, abs=1e-12)
    assert mean_bc == pytest.approx((bc + 4.0) / 5.0, abs=1e-12)


def test_memory_centroid_gap_is_the_shift_of_the_memory_rows(rng):
    codes = np.repeat(np.arange(6), 20)
    F = rng.normal(size=(120, 4)) + 4.0 * codes[:, None]
    shift = np.array([0.3, -0.4, 0.0, 1.2])
    gaps = centroid_probes(F, codes, F + shift, codes, 6)["memory_centroid_gap"]
    assert gaps == pytest.approx([float(np.linalg.norm(shift))] * 6, abs=1e-12)


def test_domain_id_by_centroids(rng):
    # two domains far apart on every dimension, each with two classes
    codes = np.repeat([0, 1, 2, 3], 25)
    F = rng.normal(scale=0.1, size=(100, 3)) + (5.0 * (codes // 2) + 0.5 * (codes % 2))[:, None]
    same = centroid_probes(F, codes, F, codes, 4)
    assert same["domain_id"] == {"eval_centroids": 100.0, "memory_centroids": 100.0}
    assert same["memory_centroid_gap"] == [0.0] * 4
    # memory rows whose codes name the other domain for every row
    swapped = centroid_probes(F, codes, F, codes ^ 2, 4)
    assert swapped["domain_id"] == {"eval_centroids": 100.0, "memory_centroids": 0.0}
    assert min(swapped["memory_centroid_gap"]) > 8.0


@pytest.mark.parametrize("head", ["dgkd", "mlp", "groupkan"])
def test_probe_prints_each_field(head, tmp_path, capsys):
    run_experiment(ExperimentConfig(seed=11, head=head, train_samples=96, eval_samples=64,
                                    epochs=1, memory_budget=60), tmp_path)
    assert main(["probe", "--dir", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    dgkd = head == "dgkd"
    assert sorted(out) == sorted(["domain_id", "head", "memory_centroid_gap", "old_tasks",
                                  "overlap", "protocol", "seed", "summary"]
                                 + ["locality_ratio"] * dgkd)
    assert [row["task"] for row in out["old_tasks"]] == [1, 2, 3]
    assert sorted(out["old_tasks"][0]) == sorted(["acc", "auc", "best_threshold_acc", "diag_acc",
                                                  "diag_auc", "task"] + ["prefix_head_acc"] * dgkd)
    assert sorted(out["summary"]) == sorted(["af_acc", "af_auc", "threshold_gap"]
                                            + ["prefix_head_af"] * dgkd)
    assert len(out["memory_centroid_gap"]) == 8 and len(out.get("locality_ratio", [0] * 4)) == 4
    assert all(row["best_threshold_acc"] >= row["acc"] for row in out["old_tasks"])


@pytest.mark.parametrize("protocol,memory_budget", [
    ("ten-task", 40), ("two-task-overlap", 20), ("two-task-separated", 20)])
def test_probe_sizes_follow_the_protocol(protocol, memory_budget, tmp_path, capsys):
    matrix = run_experiment(ExperimentConfig(protocol=protocol, seed=11, train_samples=96,
                                             eval_samples=64, epochs=1,
                                             memory_budget=memory_budget), tmp_path)
    T = matrix.num_steps
    assert main(["probe", "--dir", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["task"] for row in out["old_tasks"]] == list(range(1, T))
    assert [row["acc"] for row in out["old_tasks"]] == matrix.row(T, "acc")[:-1]
    assert len(out["memory_centroid_gap"]) == 2 * T and len(out["locality_ratio"]) == T
