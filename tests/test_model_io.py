import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm.core import DescentSequence, DescentStep, Mode, SmoothMap, apply_sequence
from sdm.errors import ModelFormatError
from sdm.model_io import load_sequence, save_sequence, sequence_bytes, sequence_from_bytes


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


def v1_bytes(p, m, stages, arrays, magic=b"SDMQ", mode=1):
    head = magic + struct.pack("<HBIII", 1, mode, p, m, stages)
    return head + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "data, match",
        [
            (v1_bytes(2, 3, 0, []), "stages"),
            (v1_bytes(0, 3, 1, [np.zeros(0)]), "p, m"),
            (v1_bytes(2, 0, 1, [np.zeros(2)]), "p, m"),
            (v1_bytes(2, 3, 1, [np.full((2, 3), np.nan), np.zeros(2)]), "non-finite gain"),
            (v1_bytes(2, 3, 1, [np.zeros((2, 3)), [0.0, np.inf]]), "non-finite bias"),
            # the first non-finite value in file order is named: step 0's bias, not step 1's gain
            (v1_bytes(2, 3, 2, [np.zeros((2, 3)), [np.nan, 0.0], np.full((2, 3), np.inf),
                                np.zeros(2)]), "non-finite bias"),
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
        ids=["zero-stages", "zero-p", "zero-m", "nan-gain", "inf-bias", "bias-before-gain",
             "trailing-byte", "extra-bias-entry", "v2-nan-center", "v2-nan-bias",
             "v2-extra-step", "huge-header"],
    )
    def test_sequence_loader_raises_model_format_error(self, data, match):
        with pytest.raises(ModelFormatError, match=match):
            sequence_from_bytes(data)

    def test_online_state_header_is_not_a_model_file(self):
        # the magic and header of the online-state files that earlier versions wrote
        data = b"SDMO" + struct.pack("<HBIII", 1, 2, 2, 3, 1) + struct.pack("<dd", 1.0, 1.0)
        with pytest.raises(ModelFormatError, match="bad magic"):
            sequence_from_bytes(data + bytes(8 * 64))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"", b"SDMQ", b"SDMO"]), st.binary(max_size=160))
    def test_arbitrary_bytes_raise_only_model_format_error(self, magic, tail):
        try:
            sequence_from_bytes(magic + tail)
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
