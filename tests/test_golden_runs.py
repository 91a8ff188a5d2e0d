"""Golden-run byte guard: two short data-free dgkd runs at the reference
batch shapes must write ``scores.csv`` and ``memory_final.csv`` with the
SHA-256 digests recorded at commit 5d6c041.

Each run trains 128 rows per task in 64-row batches, so every contrastive
batch holds the reference 128 rows, scores 64 eval rows per task, and keeps
a 40-row memory, over 2 epochs at seed 11.  A change meant to keep every
run's bytes keeps these digests; a change that moves them re-records the
reference numbers and says so.

The digests hold on numpy 2.4.6 with the OpenBLAS 0.3.31 its wheel carries,
as the byte oracles of ``test_byte_oracles.py`` do; on another BLAS build
these checks fail.
"""
import hashlib

import pytest

from dgkan.cli import ExperimentConfig, run_experiment

GOLDEN_DIGESTS = {
    "four-task": {
        "scores.csv": "00c700a9b6e5556fe9ea695bb570f4dd9c531450140abe2c68522b6691e2c90d",
        "memory_final.csv": "c2d7a295687dcb327bcb70b457d92dad6f9564c05dfd71ff298e07006f35d1e3",
    },
    "ten-task": {
        "scores.csv": "686c1846777d5a4e2ff3e7d32ba2e1ee08b702d80217817193e65806bf187be4",
        "memory_final.csv": "f3f253d40073dcd83c8e45665f20fa65c06a6c051a0351fbf9bbeb26d5ce7ed6",
    },
}


@pytest.mark.parametrize("protocol", GOLDEN_DIGESTS)
def test_short_dgkd_run_keeps_its_bytes(protocol, tmp_path):
    cfg = ExperimentConfig(protocol=protocol, seed=11, head="dgkd", use_raw_replay=False,
                           train_samples=128, eval_samples=64, epochs=2, memory_budget=40)
    run_experiment(cfg, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS[protocol]}
    assert digests == GOLDEN_DIGESTS[protocol]
