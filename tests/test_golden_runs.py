"""Golden-run byte guard: two short data-free dgkd runs at the reference
batch shapes must write ``scores.csv`` and ``memory_final.csv`` with the
SHA-256 digests recorded at commit 5d6c041, and ``model_final.csv`` with the
digests recorded when the run began to write it.  The two dumps of the
four-task run, read from its directory, must write the bytes that commit
1090e72 wrote when each dump still retrained the run from its config.

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

from dgkan.cli import ExperimentConfig, main, run_experiment

GOLDEN_DIGESTS = {
    "four-task": {
        "scores.csv": "00c700a9b6e5556fe9ea695bb570f4dd9c531450140abe2c68522b6691e2c90d",
        "memory_final.csv": "c2d7a295687dcb327bcb70b457d92dad6f9564c05dfd71ff298e07006f35d1e3",
        "model_final.csv": "c3dd5d04530fbf01f5dde814796c53424b044229c337919325ad65845199c27e",
    },
    "ten-task": {
        "scores.csv": "686c1846777d5a4e2ff3e7d32ba2e1ee08b702d80217817193e65806bf187be4",
        "memory_final.csv": "f3f253d40073dcd83c8e45665f20fa65c06a6c051a0351fbf9bbeb26d5ce7ed6",
        "model_final.csv": "e2ca4ba255c3b3c1b70d2f5f0728c7a0bc5bff0d4ca29374f858175e2901b972",
    },
}

# the four-task run's dumps, as `dgkan <verb> --config` wrote them at 1090e72
GOLDEN_DUMP_DIGESTS = {
    ("dump-profile", "--group", "0"):
        "1c279a756c7e3da1fc4c64bd8b96425eccaaab1db369bc6c2cf21c9dac09b5c0",
    ("dump-embeddings",): "24f8529a16f5cf537e0a9e7184f7308416564833fb12024bc169f5ffda97a172",
}


def _short_run(protocol: str, out) -> None:
    run_experiment(ExperimentConfig(protocol=protocol, seed=11, head="dgkd",
                                    use_raw_replay=False, train_samples=128, eval_samples=64,
                                    epochs=2, memory_budget=40), out)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("protocol", GOLDEN_DIGESTS)
def test_short_dgkd_run_keeps_its_bytes(protocol, tmp_path):
    _short_run(protocol, tmp_path)
    digests = {name: _digest(tmp_path / name) for name in GOLDEN_DIGESTS[protocol]}
    assert digests == GOLDEN_DIGESTS[protocol]


def test_dumps_of_the_short_four_task_run_keep_their_bytes(tmp_path):
    _short_run("four-task", tmp_path / "run")
    for (verb, *options), digest in GOLDEN_DUMP_DIGESTS.items():
        out = tmp_path / f"{verb}.csv"
        assert main([verb, "--dir", str(tmp_path / "run"), "--out", str(out), *options]) == 0
        assert _digest(out) == digest, verb
