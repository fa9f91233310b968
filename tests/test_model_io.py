import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm.core import DescentSequence, DescentStep, Mode, SmoothMap, apply_sequence
from sdm.errors import ModelFormatError
from sdm.model_io import (
    load_online_state,
    load_sequence,
    online_state_from_bytes,
    save_online_state,
    save_sequence,
    sequence_bytes,
    sequence_from_bytes,
)
from sdm.online import OnlineState, init_online, rls_ingest


def random_steps(rng, p, m, count, mode):
    """Random steps; biases only in generalized mode, the one mode that learns them."""
    return tuple(
        DescentStep(gain=rng.normal(size=(p, m)),
                    bias=rng.normal(size=p) if mode is Mode.GENERALIZED else np.zeros(p))
        for _ in range(count)
    )


def random_sequence(rng, p=3, m=5, stages=4, mode=Mode.REVERSED):
    steps = random_steps(rng, p, m, stages, mode)
    return DescentSequence(steps=steps, param_dim=p, feature_dim=m, mode=mode,
                           training_report=(3.0, 2.0, 1.0, 0.5, 0.25))


class TestSequenceFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for mode in Mode:
            seq = random_sequence(rng, mode=mode)
            path = tmp_path / f"{mode.value}.sdm"
            save_sequence(seq, path)
            loaded = load_sequence(path)
            assert loaded.mode is mode
            assert (loaded.param_dim, loaded.feature_dim) == (3, 5)
            assert len(loaded) == len(seq)
            for a, b in zip(loaded.steps, seq.steps):
                assert np.array_equal(a.gain, b.gain)
                assert np.array_equal(a.bias, b.bias)

    def test_loaded_sequence_runs_with_the_bits_of_the_saved_one(self, tmp_path):
        # a least-squares solve hands back column-major gains; the file is
        # row-major, and both must advance a point with the same bits
        rng = np.random.default_rng(2)
        steps = tuple(DescentStep.from_gain(np.asfortranarray(rng.normal(size=(3, 16))))
                      for _ in range(4))
        seq = DescentSequence(steps=steps, param_dim=3, feature_dim=16, mode=Mode.REVERSED)
        save_sequence(seq, tmp_path / "m.sdm")
        loaded = load_sequence(tmp_path / "m.sdm")
        A = rng.normal(size=(16, 3))
        smap = SmoothMap(3, 16, lambda x: np.tanh(x @ A.T))
        X0, Y = rng.normal(size=(20, 3)), rng.normal(size=(20, 16))
        assert np.array_equal(apply_sequence(loaded, X0, smap, Y), apply_sequence(seq, X0, smap, Y))

    def test_training_report_not_persisted(self, tmp_path):
        seq = random_sequence(np.random.default_rng(1))
        path = tmp_path / "m.sdm"
        save_sequence(seq, path)
        assert load_sequence(path).training_report == ()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sdm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="magic"):
            load_sequence(path)

    def test_truncated_file_rejected(self, tmp_path):
        seq = random_sequence(np.random.default_rng(2))
        data = sequence_bytes(seq)
        path = tmp_path / "cut.sdm"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_sequence(path)

    def test_unknown_version_rejected(self, tmp_path):
        seq = random_sequence(np.random.default_rng(3))
        data = bytearray(sequence_bytes(seq))
        data[4] = 99  # version field
        path = tmp_path / "v99.sdm"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_sequence(path)


def partitioned_sequence(rng, p=3, m=5, stages=3, partition=(2, 0)):
    steps = random_steps(rng, p, m, stages << len(partition), Mode.REVERSED)
    return DescentSequence(steps=steps, param_dim=p, feature_dim=m, mode=Mode.REVERSED,
                           partition=partition, center=rng.normal(size=len(partition)))


def v2_bytes(p, m, stages, partition, center, steps):
    """A format-v2 file packed by hand from the documented layout."""
    k = len(partition)
    head = b"SDMQ" + struct.pack("<HBIII", 2, 1, p, m, stages)
    body = struct.pack(f"<I{k}I", k, *partition) + struct.pack(f"<{len(center)}d", *center)
    return head + body + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in steps)


class TestPartitionedFormat:
    def test_v2_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        seq = partitioned_sequence(rng)
        path = tmp_path / "split.sdm"
        save_sequence(seq, path)
        data = path.read_bytes()
        assert struct.unpack_from("<H", data, 4) == (2,)
        loaded = load_sequence(path)
        assert loaded.partition == (2, 0)
        assert np.array_equal(loaded.center, seq.center)
        assert (len(loaded), loaded.n_regions) == (3, 4)
        for a, b in zip(loaded.steps, seq.steps):
            assert np.array_equal(a.gain, b.gain)
            assert np.array_equal(a.bias, b.bias)
        assert sequence_bytes(loaded) == data
        smap = SmoothMap(3, 5, lambda x: np.tanh(np.arange(1.0, 6.0) * x.sum()))
        for x0 in rng.normal(size=(5, 3)):
            want = apply_sequence(seq, x0, smap, y=np.zeros(5))
            got = apply_sequence(loaded, x0, smap, y=np.zeros(5))
            assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_v2_file_matches_the_documented_layout(self):
        seq = partitioned_sequence(np.random.default_rng(7), stages=2, partition=(1,))
        arrays = [a for step in seq.steps for a in (step.gain, step.bias)]
        assert sequence_bytes(seq) == v2_bytes(3, 5, 2, (1,), seq.center, arrays)

    def test_v1_file_loads_and_estimates_as_before(self):
        rng = np.random.default_rng(8)
        p, m, stages = 2, 3, 3
        arrays = [a for _ in range(stages) for a in (rng.normal(size=(p, m)), np.zeros(p))]
        v1 = b"SDMQ" + struct.pack("<HBIII", 1, 1, p, m, stages) + b"".join(
            a.astype("<f8").tobytes() for a in arrays
        )
        loaded = sequence_from_bytes(v1)
        assert (loaded.partition, loaded.n_regions, len(loaded)) == ((), 1, stages)
        # unpartitioned sequences are still written as v1, byte for byte
        assert sequence_bytes(loaded) == v1
        A = rng.normal(size=(m, p))
        smap = SmoothMap(p, m, lambda x: A @ x)
        y = rng.normal(size=m)
        x = np.zeros(p)
        traj = apply_sequence(loaded, x, smap, y=y)
        for k in range(stages):  # the v1 update rule, one dot product per parameter
            x = x + np.vecdot((y - A @ x)[None], arrays[2 * k]) + arrays[2 * k + 1]
            assert np.array_equal(traj[k + 1], x)

    @pytest.mark.parametrize("mode_code", [0, 1])  # template, reversed
    def test_nonzero_bias_outside_generalized_mode_rejected(self, mode_code):
        p, m = 2, 3
        v1 = b"SDMQ" + struct.pack("<HBIII", 1, mode_code, p, m, 1) + b"".join(
            a.astype("<f8").tobytes() for a in (np.ones((p, m)), np.array([0.0, 1e-300]))
        )
        with pytest.raises(ModelFormatError, match="nonzero biases"):
            sequence_from_bytes(v1)

    @pytest.mark.parametrize(
        "partition, center",
        [
            ((), ()),                  # v2 without partition coordinates
            ((0, 1, 2, 0), (0.0,) * 4),  # more coordinates than parameters
            ((1, 1), (0.0, 0.0)),      # repeated coordinate
            ((3,), (0.0,)),            # coordinate out of range
            ((0,), (np.nan,)),         # non-finite center
        ],
    )
    def test_malformed_partition_fields_rejected(self, partition, center):
        p, m, stages = 3, 2, 1
        steps = [np.zeros((p, m)), np.zeros(p)] * (stages << len(partition))
        with pytest.raises(ModelFormatError, match="partition"):
            sequence_from_bytes(v2_bytes(p, m, stages, partition, center, steps))

    def test_truncated_partition_block_rejected(self):
        data = sequence_bytes(partitioned_sequence(np.random.default_rng(9)))
        with pytest.raises(ModelFormatError, match="truncated"):
            sequence_from_bytes(data[:25])


class TestOnlineFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(4)
        p, m = 2, 4
        A = rng.normal(size=(m, p))
        smap = SmoothMap(p, m, lambda x: A @ x)
        zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
        seq = DescentSequence(steps=(zero, zero), param_dim=p, feature_dim=m,
                              mode=Mode.GENERALIZED)
        state = init_online(seq, ridge=1e-2, forgetting=0.95, sample_weight=2.0)
        for _ in range(12):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)

        path = tmp_path / "state.sdm"
        save_online_state(state, path)
        loaded = load_online_state(path)
        assert loaded.forgetting == state.forgetting
        assert loaded.sample_weight == state.sample_weight
        assert loaded.n_stages == state.n_stages
        for a, b in zip(loaded.weights, state.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.inv_cov, state.inv_cov):
            assert np.array_equal(a, b)

    def test_asymmetric_inverse_information_matrix_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        p, m, stages = 2, 3, 2
        A = rng.normal(size=(m, p))
        smap = SmoothMap(p, m, lambda x: A @ x)
        zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
        seq = DescentSequence(steps=(zero,) * stages, param_dim=p, feature_dim=m,
                              mode=Mode.GENERALIZED)
        state = init_online(seq, ridge=1e-2)
        for _ in range(5):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        path = tmp_path / "state.sdm"
        save_online_state(state, path)
        data = bytearray(path.read_bytes())
        online_state_from_bytes(bytes(data))  # saved states are exactly symmetric
        # entry (0, 1) of stage 0's inverse information matrix, one ulp off
        at = len(data) - stages * (m + 1) ** 2 * 8 + 8
        (value,) = struct.unpack_from("<d", data, at)
        struct.pack_into("<d", data, at, np.nextafter(value, np.inf))
        with pytest.raises(ModelFormatError, match="not exactly symmetric"):
            online_state_from_bytes(bytes(data))

    def test_sequence_reader_rejects_online_files(self, tmp_path):
        rng = np.random.default_rng(5)
        p, m = 2, 3
        zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
        seq = DescentSequence(steps=(zero,), param_dim=p, feature_dim=m,
                              mode=Mode.GENERALIZED)
        state = init_online(seq, ridge=1.0)
        path = tmp_path / "state.sdm"
        save_online_state(state, path)
        with pytest.raises(ModelFormatError):
            load_sequence(path)


def v1_bytes(p, m, stages, arrays, magic=b"SDMQ", mode=1):
    head = magic + struct.pack("<HBIII", 1, mode, p, m, stages)
    return head + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def online_bytes(p, m, stages, forgetting=1.0, weight=1.0, fill=0.0):
    floats = stages * (p * m + p + (m + 1) ** 2)
    return (b"SDMO" + struct.pack("<HBIII", 1, 2, p, m, stages)
            + struct.pack("<dd", forgetting, weight) + struct.pack(f"<{floats}d", *[fill] * floats))


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "data, match",
        [
            (v1_bytes(2, 3, 0, []), "stages"),
            (v1_bytes(0, 3, 1, [np.zeros(0)]), "p, m"),
            (v1_bytes(2, 0, 1, [np.zeros(2)]), "p, m"),
            (v1_bytes(2, 3, 1, [np.full((2, 3), np.nan), np.zeros(2)]), "non-finite gain"),
            (v1_bytes(2, 3, 1, [np.zeros((2, 3)), [0.0, np.inf]]), "non-finite bias"),
            (v1_bytes(2, 3, 1, [np.zeros((2, 3)), np.zeros(2)]) + b"\0", "trailing"),
            (v1_bytes(2, 3, 1, [np.zeros((2, 3)), np.zeros(3)]), "trailing"),
            (v2_bytes(3, 2, 1, (0,), (np.nan,), [np.zeros((3, 2)), np.zeros(3)] * 2),
             "non-finite partition center"),
            (v2_bytes(3, 2, 1, (0,), (0.0,), [np.zeros((3, 2)), [np.nan, 0, 0]] * 2),
             "non-finite bias"),
            (v2_bytes(3, 2, 1, (0,), (0.0,), [np.zeros((3, 2)), np.zeros(3)] * 3),
             "trailing"),
            # sizes in the header are checked before anything is allocated
            (v1_bytes(2**32 - 1, 2**32 - 1, 2**32 - 1, [np.zeros(4)]), "truncated"),
        ],
        ids=["zero-stages", "zero-p", "zero-m", "nan-gain", "inf-bias", "trailing-byte",
             "extra-bias-entry", "v2-nan-center", "v2-nan-bias", "v2-extra-step",
             "huge-header"],
    )
    def test_sequence_loader_raises_model_format_error(self, data, match):
        with pytest.raises(ModelFormatError, match=match):
            sequence_from_bytes(data)

    @pytest.mark.parametrize(
        "data, match",
        [
            (online_bytes(2, 3, 0), "stages"),
            (online_bytes(0, 3, 1), "p, m"),
            (online_bytes(2, 3, 1, fill=np.nan), "non-finite gain"),
            (online_bytes(2, 3, 1, forgetting=0.0), "forgetting"),
            (online_bytes(2, 3, 1, weight=np.inf), "sample weight"),
            (online_bytes(2, 3, 1) + b"\0" * 8, "trailing"),
            (online_bytes(2, 3, 1)[:-8], "truncated"),
        ],
        ids=["zero-stages", "zero-p", "nan-gain", "zero-forgetting", "inf-weight",
             "trailing-float", "truncated"],
    )
    def test_online_loader_raises_model_format_error(self, data, match):
        with pytest.raises(ModelFormatError, match=match):
            online_state_from_bytes(data)

    def test_non_finite_inverse_information_matrix_rejected(self):
        data = bytearray(online_bytes(1, 1, 1))
        data[-8:] = struct.pack("<d", np.nan)
        with pytest.raises(ModelFormatError, match="non-finite inverse information"):
            online_state_from_bytes(bytes(data))

    def test_valid_online_bytes_load(self):
        state = online_state_from_bytes(online_bytes(2, 3, 2, forgetting=0.5, weight=2.0))
        assert (state.n_stages, state.forgetting, state.sample_weight) == (2, 0.5, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"", b"SDMQ", b"SDMO"]), st.binary(max_size=160))
    def test_arbitrary_bytes_raise_only_model_format_error(self, magic, tail):
        for load in (sequence_from_bytes, online_state_from_bytes):
            try:
                load(magic + tail)
            except ModelFormatError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corrupted_valid_files_raise_only_model_format_error(self, data):
        rng = np.random.default_rng(10)
        files = [sequence_bytes(random_sequence(rng, p=2, m=2, stages=2)),
                 sequence_bytes(partitioned_sequence(rng, p=2, m=2, stages=1, partition=(1,)))]
        original = data.draw(st.sampled_from(files))
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(original) - 1),
                                             st.integers(0, 255)), max_size=4))
        cut = data.draw(st.integers(0, len(original) + 8))
        corrupted = bytearray(original + bytes(8))[:cut]
        for pos, value in edits:
            if pos < len(corrupted):
                corrupted[pos] = value
        try:
            seq = sequence_from_bytes(bytes(corrupted))
        except ModelFormatError:
            return
        assert sequence_bytes(seq) == bytes(corrupted)


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.sampled_from(list(Mode)),
           st.lists(st.integers(0, 3), unique=True, max_size=3), st.integers(0, 2**32 - 1))
    def test_model_files_round_trip_byte_exactly(self, p, m, stages, mode, partition, seed):
        rng = np.random.default_rng(seed)
        partition = tuple(c for c in partition if c < p)
        seq = DescentSequence(steps=random_steps(rng, p, m, stages << len(partition), mode),
                              param_dim=p, feature_dim=m, mode=mode, partition=partition,
                              center=rng.normal(size=len(partition)))
        data = sequence_bytes(seq)
        loaded = sequence_from_bytes(data)
        assert sequence_bytes(loaded) == data
        assert (loaded.mode, loaded.partition, len(loaded)) == (mode, partition, stages)
        assert loaded.center.tobytes() == seq.center.tobytes()
        for a, b in zip(loaded.steps, seq.steps):
            assert a.gain.tobytes() == b.gain.tobytes() and a.bias.tobytes() == b.bias.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
           st.floats(1e-3, 1.0), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_online_state_files_round_trip_byte_exactly(self, p, m, stages, forgetting,
                                                        weight, seed):
        rng = np.random.default_rng(seed)

        def symmetric():
            B = rng.normal(size=(m + 1, m + 1))
            return B + B.T

        state = OnlineState(weights=[rng.normal(size=(p, m + 1)) for _ in range(stages)],
                            inv_cov=[symmetric() for _ in range(stages)], param_dim=p,
                            feature_dim=m, forgetting=forgetting, sample_weight=weight)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.sdmo"), Path(tmp, "b.sdmo")
            save_online_state(state, first)
            loaded = load_online_state(first)
            save_online_state(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert (loaded.forgetting, loaded.sample_weight) == (forgetting, weight)
        for got, want in zip(loaded.weights + loaded.inv_cov, state.weights + state.inv_cov):
            assert got.tobytes() == want.tobytes()
