import hashlib

import numpy as np
import pytest

from dgkan import synthbench
from dgkan.numcore import ContractViolation, RngStream
from dgkan.synthbench import (LAYOUTS, PROTOCOLS, SIGMA, WALSH_ROWS, dataset, gen_domain,
                              gen_sequence)


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

    def test_seed_is_an_integer_at_least_zero(self):
        # a numpy integer keeps the bytes; 1.5 gave seed 1's bytes, and -1
        # failed only at the first dataset call, in numpy
        a, b = gen_sequence("four-task", np.int64(3)), gen_sequence("four-task", 3)
        assert type(a.seed) is int and a.seed == 3
        for split in ("train", "eval"):
            for got, want in zip(dataset(a, 2, split), dataset(b, 2, split)):
                assert got.tobytes() == want.tobytes()
        for seed in (1.5, -1, True):
            with pytest.raises(ContractViolation, match="seed must be an integer >= 0"):
                gen_sequence("four-task", seed)

    def test_split_sizes_are_integers_at_least_two(self):
        # -4 built a stream whose first dataset call failed in numpy, and
        # 2.5 failed there with a bare TypeError
        a = gen_sequence("four-task", 1, train_n=np.int64(64), eval_n=np.int64(32))
        assert (type(a.train_n), type(a.eval_n)) == (int, int)
        for name in ("train_n", "eval_n"):
            for n in (-4, 0, 1, 2.5, True):
                with pytest.raises(ContractViolation, match=f"{name} must be an integer >= 2"):
                    gen_sequence("four-task", 1, **{name: n})

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


def test_protocols_keep_their_order():
    # PROTOCOLS is LAYOUTS' keys: --protocol choices, the protocol error
    # text and these test IDs list them in this order
    assert PROTOCOLS == tuple(LAYOUTS) == tuple(STREAM_DIGESTS)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _gram_schmidt_geometry(d_x: int) -> dict[str, np.ndarray]:
    """The directions as Gram-Schmidt built them from the ±1 patterns, kept
    verbatim as the reference for the Walsh table."""
    if d_x % 8 != 0:
        raise ContractViolation("protocol construction requires d_x divisible by 8")
    raw = {
        "shift": np.ones(d_x),
        "comp": np.tile([1.0, -1.0], d_x // 2),
        "style_a": np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], d_x // 8),
        "style_b": np.tile([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0], d_x // 8),
        "fake_a": np.tile([1.0, 1.0, -1.0, -1.0], d_x // 4),
        "fake_b": np.tile([1.0, -1.0, -1.0, 1.0], d_x // 4),
    }
    geom: dict[str, np.ndarray] = {}
    basis: list[np.ndarray] = []
    for name, vec in raw.items():
        v = vec.astype(np.float64)
        for b in basis:
            v = v - (v @ b) * b
        v = _unit(v)
        basis.append(v)
        geom[name] = v
    return geom


def test_walsh_rows_are_orthogonal():
    # integer dot products, so exactly 0 off the diagonal
    rows = np.array(list(WALSH_ROWS.values()))
    assert np.array_equal(rows @ rows.T, 8 * np.eye(len(rows), dtype=rows.dtype))


@pytest.mark.parametrize("d_x", [8, 16, 24, 32, 64, 128, 1024])
def test_walsh_directions_keep_the_gram_schmidt_bytes(d_x):
    got, ref = synthbench._protocol_geometry(d_x), _gram_schmidt_geometry(d_x)
    assert list(got) == list(ref)
    for name in ref:
        assert got[name].tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("d_x", [24, 32, 64, 128])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stream_means_keep_their_bytes_beyond_the_digests(protocol, d_x, monkeypatch):
    # STREAM_DIGESTS covers d_x 8 and 16 only
    got = gen_sequence(protocol, 11, d_x=d_x)
    monkeypatch.setattr(synthbench, "_protocol_geometry", _gram_schmidt_geometry)
    ref = gen_sequence(protocol, 11, d_x=d_x)
    assert got.real_means.tobytes() == ref.real_means.tobytes()
    assert got.fake_means.tobytes() == ref.fake_means.tobytes()
