"""Golden-run byte guard: two short data-free dgkd runs at the reference
batch shapes must write ``scores.csv`` and ``memory_final.csv`` with the
SHA-256 digests recorded at commit 5d6c041, and ``model_final.csv`` with the
digests recorded when the run began to write it.  ``dgkan probe`` over the
four-task run's directory must print the bytes recorded when the verb was
added, on every call.

Each run trains 128 rows per task in 64-row batches, so every contrastive
batch holds the reference 128 rows, scores 64 eval rows per task, and keeps
a 40-row memory, over 2 epochs at seed 11.  A change meant to keep every
run's bytes keeps these digests; a change that moves them re-records the
reference numbers and says so.

Four more four-task short runs, at the same sizes, pin the paths the
data-free dgkd runs do not take: the mlp and groupkan heads, dgkd with raw
replay, and dgkd without KDCP.  Their digests were recorded by running
commit b593c51, before the group-rational backward read its cache and
summed its groups with ``np.bincount``; the groupkan case shows that
rewrite kept its run's bytes.  A run this short takes 16 Adam steps, too
few to show a last-bit change of a gradient, so the byte oracle
``test_group_rational_backward`` pins the rewrite's gradients.

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

# four-task short runs off the data-free dgkd path, as commit b593c51 wrote them
OFF_PATH_DIGESTS = {
    "mlp": ({"head": "mlp"}, {
        "scores.csv": "5c2be77e4270dfaf781297b777451473b0b6daac00c7626bc4a5eb6a50ae8a9c",
        "memory_final.csv": "f5e7cc326aaaeb7fd6a8b1774a7e2dfcf637a35afe24d42bb17e456aa22d3a11",
        "model_final.csv": "e09162923ce8b3919209071546057eb7cad5a95419070ed28e98f15f7aa14f03",
    }),
    "groupkan": ({"head": "groupkan"}, {
        "scores.csv": "e729281bc286f32e8d16436ead2cdc2396c55ebb8091e5c323bedb2f9570e33e",
        "memory_final.csv": "e114864ed5dc74ad0bde953d339777b833f432971ae6de24f878c4dcf0664772",
        "model_final.csv": "856b06a0968547a58facd8184943336eea37c1342552886f1c518f5e6c8d52bd",
    }),
    "dgkd-raw-replay": ({"use_raw_replay": True}, {
        "scores.csv": "4846716a8f4cbb364042a90eb551d410b3597546f699b1fa75312e131c9d7b3c",
        "memory_final.csv": "f68fbfefec4e65dda6cc255db555a373e302ae22be2d0591d059f5c606aa7b89",
        "model_final.csv": "65245edf8530715162999f8428614373c28e40e81f7fae9601650c8ca68968f6",
    }),
    "dgkd-no-kdcp": ({"use_kdcp": False}, {
        "scores.csv": "8434c962b852ce7ca4694f4768bf0511d1243d2f0e52553c479a5587077c174f",
        "memory_final.csv": "5b2d720e168ce5f40236c8a620b09dc4d918fc0b2813a18fd2e2523849b00230",
        "model_final.csv": "9b8055ea16a50b69460c9858385dc3ef7615ca84de1faf1d11791a742812d33e",
    }),
}

# the SHA-256 of what `dgkan probe` prints for the four-task run
GOLDEN_PROBE_DIGEST = "164e3827f49a29780904b03c41c6d8d2c3b03e8ca7a8ea38b48dc162103b5b20"


def _short_run(protocol: str, out, **overrides) -> None:
    fields = {"head": "dgkd", "use_raw_replay": False, **overrides}
    run_experiment(ExperimentConfig(protocol=protocol, seed=11, train_samples=128,
                                    eval_samples=64, epochs=2, memory_budget=40, **fields), out)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("protocol", GOLDEN_DIGESTS)
def test_short_dgkd_run_keeps_its_bytes(protocol, tmp_path):
    _short_run(protocol, tmp_path)
    digests = {name: _digest(tmp_path / name) for name in GOLDEN_DIGESTS[protocol]}
    assert digests == GOLDEN_DIGESTS[protocol]


@pytest.mark.parametrize("case", OFF_PATH_DIGESTS)
def test_short_off_path_run_keeps_its_bytes(case, tmp_path):
    overrides, golden = OFF_PATH_DIGESTS[case]
    _short_run("four-task", tmp_path, **overrides)
    assert {name: _digest(tmp_path / name) for name in golden} == golden


def test_probe_of_the_short_four_task_run_keeps_its_bytes(tmp_path, capsys):
    _short_run("four-task", tmp_path)
    for _ in range(2):
        assert main(["probe", "--dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROBE_DIGEST and err == ""
