import hashlib

import numpy as np
import pytest

from dgkan.numcore import ContractViolation, RngStream
from dgkan.synthbench import LAYOUTS, PROTOCOLS, SIGMA, dataset, gen_domain, gen_sequence


class TestGenDomain:
    def _means(self, rng):
        real = rng.normal(size=(2, 8))
        return real, real + 1.0

    def test_deterministic(self, rng):
        means = self._means(rng)
        a = gen_domain(*means, RngStream(3), 100)
        b = gen_domain(*means, RngStream(3), 100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_exact_row_count(self, rng):
        X, y = gen_domain(*self._means(rng), RngStream(1), 1000)
        assert X.shape == (1000, 8) and y.shape == (1000,)

    def test_class_balance(self, rng):
        _, y = gen_domain(*self._means(rng), RngStream(1), 1000)
        assert int(y.sum()) == 500

    def test_real_class_mean_within_three_se(self, rng):
        real, fake = self._means(rng)
        X, y = gen_domain(real, fake, RngStream(5), 20_000)
        rows = X[y == 0]
        expected = real.mean(axis=0)   # components drawn uniformly
        se = rows.std(axis=0) / np.sqrt(len(rows))
        assert np.all(np.abs(rows.mean(axis=0) - expected) < 3.0 * se)

    def test_real_fake_must_differ(self, rng):
        real = rng.normal(size=(2, 8))
        with pytest.raises(ContractViolation, match="must differ"):
            gen_domain(real, real.copy(), RngStream(1), 10)


class TestSequences:
    def test_ten_task_length(self):
        assert len(gen_sequence("ten-task", 7)) == 10

    def test_four_task_length(self):
        assert len(gen_sequence("four-task", 7)) == 4

    def test_separated_distance(self):
        mean0, mean1 = gen_sequence("two-task-separated", 7).real_means.mean(axis=1)
        assert np.linalg.norm(mean1 - mean0) >= 10.0 * SIGMA

    def test_overlap_distance(self):
        mean0, mean1 = gen_sequence("two-task-overlap", 7).real_means.mean(axis=1)
        assert np.linalg.norm(mean1 - mean0) <= 1.0 * SIGMA

    def test_unknown_protocol(self):
        with pytest.raises(ContractViolation):
            gen_sequence("five-task", 7)

    def test_shift_monotonicity(self):
        # along the unit ones-vector, consecutive real-class means march by
        # exactly the protocol's step; the ring offsets are orthogonal to it
        ones = np.ones(8) / np.sqrt(8)
        for protocol, (num_tasks, step, _) in LAYOUTS.items():
            mus = gen_sequence(protocol, 3).real_means.mean(axis=1)
            assert len(mus) == num_tasks
            assert np.allclose(np.diff(mus, axis=0) @ ones, step * SIGMA, atol=1e-9), protocol

    def test_train_eval_disjoint_by_substream(self):
        stream = gen_sequence("four-task", 11, train_n=64, eval_n=64)
        for t in range(4):
            Xtr, _ = dataset(stream, t, "train")
            Xev, _ = dataset(stream, t, "eval")
            h_tr = {hashlib.sha256(row.tobytes()).hexdigest() for row in Xtr}
            h_ev = {hashlib.sha256(row.tobytes()).hexdigest() for row in Xev}
            assert not (h_tr & h_ev)

    def test_dataset_regeneration_bit_identical(self):
        stream = gen_sequence("four-task", 11)
        a = dataset(stream, 2, "train")
        b = dataset(stream, 2, "train")
        assert np.array_equal(a[0], b[0])

    def test_unknown_split(self):
        stream = gen_sequence("four-task", 11)
        with pytest.raises(ContractViolation):
            dataset(stream, 0, "validation")

    @pytest.mark.parametrize("task_index", [-1, 4])
    def test_task_index_out_of_range(self, task_index):
        # the rng is keyed by the index, so -1 must not alias the last task
        stream = gen_sequence("four-task", 11)
        with pytest.raises(ContractViolation, match="out of range"):
            dataset(stream, task_index, "train")


# SHA-256 over every draw below, recorded while each domain was still stored
# as its own record: the refactor to per-stream mean arrays kept the bytes.
STREAM_DIGESTS = {
    "four-task": "207ccc85300a5777324f38de3a1a59c93ed9db89bac4569f2d486c82d945be71",
    "ten-task": "4d85f9a676de4cdb33d772a59b0a5fbad3ae96fb775cb97ec4dc5258b8ebe318",
    "two-task-overlap": "c6da928e2e54b6608b8194b2c80f25c9ed0df0c6c780ac6690ead902cf2f6be0",
    "two-task-separated": "25e2f4197fe1fa08c01e1586d86ad9e291d19a6db1b69a06da3b32624d37cfe0",
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stream_bytes_are_pinned(protocol):
    # every run's data comes from these draws, so a stream whose bytes move
    # changes every score; this pins them across commits, not just calls
    h = hashlib.sha256()
    for seed in (11, 23, 47):
        for d_x in (8, 16):
            for sizes in ({}, {"train_n": 65, "eval_n": 32}):
                stream = gen_sequence(protocol, seed, d_x=d_x, **sizes)
                for t in range(len(stream)):
                    for split in ("train", "eval"):
                        X, y = dataset(stream, t, split)
                        h.update(X.tobytes())
                        h.update(y.tobytes())
    assert h.hexdigest() == STREAM_DIGESTS[protocol]
