import hashlib

import numpy as np
import pytest

from dgkan.numcore import ContractViolation, RngStream
from dgkan.synthbench import LAYOUTS, SIGMA, DomainSpec, dataset, gen_domain, gen_sequence


class TestGenDomain:
    def _spec(self, rng, n=200):
        real = rng.normal(size=(2, 8))
        return DomainSpec(domain_id=0, real_means=real, fake_means=real + 1.0,
                          cov_diag=np.full(8, 0.25), train_n=n, eval_n=64)

    def test_deterministic(self, rng):
        spec = self._spec(rng)
        a = gen_domain(spec, RngStream(3), 100)
        b = gen_domain(spec, RngStream(3), 100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_exact_row_count(self, rng):
        X, y = gen_domain(self._spec(rng), RngStream(1), 1000)
        assert X.shape == (1000, 8) and y.shape == (1000,)

    def test_class_balance(self, rng):
        _, y = gen_domain(self._spec(rng), RngStream(1), 1000)
        assert int(y.sum()) == 500

    def test_real_class_mean_within_three_se(self, rng):
        spec = self._spec(rng)
        X, y = gen_domain(spec, RngStream(5), 20_000)
        real = X[y == 0]
        expected = spec.real_means.mean(axis=0)   # components drawn uniformly
        se = real.std(axis=0) / np.sqrt(len(real))
        assert np.all(np.abs(real.mean(axis=0) - expected) < 3.0 * se)

    def test_invalid_covariance(self, rng):
        spec = self._spec(rng)
        spec.cov_diag = np.zeros(8)
        with pytest.raises(ContractViolation):
            gen_domain(spec, RngStream(1), 10)

    def test_real_fake_must_differ(self, rng):
        real = rng.normal(size=(2, 8))
        with pytest.raises(ContractViolation):
            DomainSpec(domain_id=0, real_means=real, fake_means=real.copy(),
                       cov_diag=np.full(8, 0.1), train_n=10, eval_n=10)


class TestSequences:
    def test_ten_task_length(self):
        assert len(gen_sequence("ten-task", 7)) == 10

    def test_four_task_length(self):
        assert len(gen_sequence("four-task", 7)) == 4

    def test_separated_distance(self):
        stream = gen_sequence("two-task-separated", 7)
        mean0 = stream.specs[0].real_means.mean(axis=0)
        mean1 = stream.specs[1].real_means.mean(axis=0)
        sigma = np.sqrt(stream.specs[0].cov_diag.max())
        assert np.linalg.norm(mean1 - mean0) >= 10.0 * sigma

    def test_overlap_distance(self):
        stream = gen_sequence("two-task-overlap", 7)
        mean0 = stream.specs[0].real_means.mean(axis=0)
        mean1 = stream.specs[1].real_means.mean(axis=0)
        sigma = np.sqrt(stream.specs[0].cov_diag.max())
        assert np.linalg.norm(mean1 - mean0) <= 1.0 * sigma

    def test_unknown_protocol(self):
        with pytest.raises(ContractViolation):
            gen_sequence("five-task", 7)

    def test_shift_monotonicity(self):
        # along the unit ones-vector, consecutive real-class means march by
        # exactly the protocol's step; the ring offsets are orthogonal to it
        ones = np.ones(8) / np.sqrt(8)
        for protocol, (num_tasks, step, _) in LAYOUTS.items():
            mus = np.array([s.real_means.mean(axis=0) for s in gen_sequence(protocol, 3).specs])
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
