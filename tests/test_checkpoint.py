import builtins
import errno
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulenet.checkpoint as ckpt
from rulenet.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from rulenet.data import Preprocessing, QuantileBins, TargetNormalizer
from rulenet.model import RuleNetModel
from rulenet.errors import (
    CheckpointError,
    FingerprintError,
    TruncationError,
    VersionError,
)

from helpers import checkpoint_file, make_dataset, tiny_config, tiny_model
from oracles import read_checkpoint


@pytest.fixture()
def saved(tmp_path):
    model, batch = tiny_model(seed=31, dtype=np.float32, missing_rate=0.2)
    path = tmp_path / "model.rnc"
    save_checkpoint(model, path)
    return model, batch, path


def _parts(data: bytes) -> tuple[dict, bytes]:
    """(manifest, blob bytes) of a format 3 checkpoint."""
    (mlen,) = struct.unpack_from("<Q", data, 12)
    return json.loads(data[20 : 20 + mlen]), data[20 + mlen :]


def _rewrite(path, mutate):
    """Edit the file in place with mutate(manifest, blobs), blobs a
    bytearray, and sign it again, so that the edit reaches the checks
    after the checksum."""
    manifest, blobs = _parts(path.read_bytes())
    blobs = bytearray(blobs)
    mutate(manifest, blobs)
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    path.write_bytes(checkpoint_file(payload, bytes(blobs)))


def _rewrite_manifest(path, mutate):
    _rewrite(path, lambda m, _: mutate(m))


def test_round_trip_is_bit_exact(saved):
    model, batch, path = saved
    loaded = load_checkpoint(path)
    want = model.named_parameters()
    got = loaded.named_parameters()
    assert set(got) == set(want)
    for name in want:
        assert got[name].data.dtype == want[name].data.dtype
        assert np.array_equal(got[name].data, want[name].data), name
    assert loaded.config == model.config
    assert np.array_equal(
        loaded.forward(batch, "eval").data, model.forward(batch, "eval").data
    )


def test_load_draws_no_init(saved, monkeypatch):
    """Every parameter comes from the file, so loading draws no random init."""
    model, _, path = saved

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random init")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path)
    want = model.named_parameters()
    for name, t in loaded.named_parameters().items():
        assert t.data.dtype == want[name].data.dtype
        assert t.data.tobytes() == want[name].data.tobytes(), name


class _DiskFullAfterOneWrite:
    """A file that takes its first write, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_leaves_the_previous_file(saved, monkeypatch):
    _, _, path = saved
    before = path.read_bytes()
    other, _ = tiny_model(seed=34, dtype=np.float32)
    monkeypatch.setattr(
        ckpt, "open", lambda *a, **kw: _DiskFullAfterOneWrite(builtins.open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(other, path)
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == [path.name]


def test_round_trip_preserves_preprocessing(saved):
    model, _, path = saved
    loaded = load_checkpoint(path)
    assert loaded.prep.schema.fingerprint() == model.prep.schema.fingerprint()
    for name, bins in model.prep.bins.items():
        assert np.array_equal(loaded.prep.bins[name].boundaries, bins.boundaries)
    assert loaded.prep.normalizer == model.prep.normalizer


def test_round_trip_float64(tmp_path):
    model, batch = tiny_model(seed=32, dtype=np.float64)
    path = tmp_path / "m64.rnc"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64
    assert loaded.head.weight.data.dtype == np.float64
    assert np.array_equal(
        loaded.forward(batch, "eval").data, model.forward(batch, "eval").data
    )


def test_missing_file_reports_cleanly(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.rnc")


def test_file_shorter_than_header(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes()[:4])
    with pytest.raises(TruncationError):
        load_checkpoint(path)


def test_header_overstates_manifest(saved):
    _, _, path = saved
    path.write_bytes(checkpoint_file(b"{}", manifest_len=10**9))
    with pytest.raises(TruncationError):
        load_checkpoint(path)


def test_truncated_blob_section(saved):
    # signed again after the cut, so that the tensor extents are what refuse it
    _, _, path = saved
    manifest, blobs = _parts(path.read_bytes())
    path.write_bytes(checkpoint_file(json.dumps(manifest).encode("utf-8"), blobs[:-16]))
    with pytest.raises(TruncationError, match="past end"):
        load_checkpoint(path)


def test_file_cut_short_fails_its_checksum(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_flipped_weight_byte_is_a_checkpoint_error(saved):
    """A changed weight byte used to load, and put a weight of about 1e37
    into every prediction."""
    _, _, path = saved
    data = bytearray(path.read_bytes())
    (mlen,) = struct.unpack_from("<Q", data, 12)
    data[20 + mlen + 3] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_garbage_manifest(saved):
    _, _, path = saved
    path.write_bytes(checkpoint_file(b"ruleN", b"\x00" * 64))
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_future_version_is_refused(saved):
    # so is the previous version, stated in a version 3 header
    _, _, path = saved
    manifest, blobs = _parts(path.read_bytes())
    payload = json.dumps(manifest).encode("utf-8")
    for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
        path.write_bytes(checkpoint_file(payload, blobs, version=version))
        with pytest.raises(VersionError, match=f"format version {version}, expected"):
            load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_version_1_or_2_file_is_refused_naming_both_versions(saved, version):
    """Those files began with the manifest length, and their manifest held
    the version and, in version 2, each feature's bin boundaries."""
    _, _, path = saved
    manifest, blobs = _parts(path.read_bytes())
    listed = manifest["preprocessing"]["bins"]
    manifest = {"format_version": version, **manifest}
    manifest["preprocessing"]["bins"] = {
        name: {"boundaries": [0.0] * n_q, "n_quantiles": n_q}
        for name, n_q in zip(listed["features"], listed["n_quantiles"])
    }
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(payload)) + payload + blobs)  # the version 2 layout
    with pytest.raises(VersionError, match=f"format version {version}, expected {FORMAT_VERSION}"):
        load_checkpoint(path)


def test_file_of_another_kind_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.rnc"
    path.write_bytes(b"PK\x03\x04" + b"\x00" * 60)
    with pytest.raises(CheckpointError, match="not a rulenet checkpoint"):
        load_checkpoint(path)


def test_tampered_schema_is_refused(saved):
    _, _, path = saved

    def rename(m):
        m["schema"]["columns"][0]["name"] = "smuggled"

    _rewrite_manifest(path, rename)
    with pytest.raises(FingerprintError):
        load_checkpoint(path)


def test_dropped_tensor_is_refused(saved):
    _, _, path = saved

    def drop(m):
        del m["tensors"][0]

    _rewrite_manifest(path, drop)
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(path)


def test_wrong_shape_is_refused(saved):
    _, _, path = saved

    def reshape(m):
        m["tensors"][0]["shape"] = [1, 1]

    _rewrite_manifest(path, reshape)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def test_unsupported_dtype_is_refused(saved):
    _, _, path = saved

    def poison(m):
        m["dtype"] = "float16"

    _rewrite_manifest(path, poison)
    with pytest.raises(CheckpointError, match="float16"):
        load_checkpoint(path)


def _holder(manifest, path):
    """The dict or list that holds the value at `path`, a non-empty key tuple."""
    for key in path[:-1]:
        manifest = manifest[key]
    return manifest


def _set(manifest, path, value):
    _holder(manifest, path)[path[-1]] = value


def _set_boundary(i, value):
    """A mutation that stores `value` as boundary i of the first numerical
    feature, in the float64 bins section."""

    def mutate(manifest, blobs):
        at = next(e["offset"] for e in manifest["tensors"] if e["name"] == "bins")
        i_ = i % manifest["preprocessing"]["bins"]["n_quantiles"][0]
        struct.pack_into("<d", blobs, at + 8 * i_, value)

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m, _: m.pop("schema"),
        lambda m, _: _set(m, ("schema",), [m["schema"]]),
        lambda m, _: m.pop("config"),
        lambda m, _: m["config"].pop("n_features"),
        lambda m, _: _set(m, ("config", "n_rules"), "many"),
        lambda m, _: _set(m, ("preprocessing", "bins"), {}),
        lambda m, _: _set(m, ("preprocessing", "normalizer"), None),
        lambda m, _: _set(m, ("tensors", 0, "offset"), -8),
        _set_boundary(0, math.nan),
        _set_boundary(-1, math.inf),
        _set_boundary(0, 1e300),
        lambda m, _: _set(m, ("preprocessing", "bins", "n_quantiles", 0), 1),
        lambda m, _: m["preprocessing"]["bins"]["features"].reverse(),
        lambda m, _: m["tensors"].pop(),
    ],
    ids=[
        "no-schema", "list-schema", "no-config", "no-n_features", "string-n_rules",
        "no-bins", "no-normalizer", "negative-offset", "nan-bin", "infinite-bin",
        "decreasing-bin", "one-quantile", "bins-out-of-order", "no-bins-section",
    ],
)
def test_malformed_manifest_is_a_checkpoint_error(saved, mutate):
    # the *-bin cases edit the bins section, not the manifest
    _, _, path = saved
    _rewrite(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_top_level_json_list_is_a_checkpoint_error(saved):
    _, _, path = saved
    path.write_bytes(checkpoint_file(b"[1, 2]"))
    with pytest.raises(CheckpointError, match="object"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def manifest_and_blobs(tmp_path_factory):
    model, _ = tiny_model(seed=33, dtype=np.float32, missing_rate=0.2)
    path = tmp_path_factory.mktemp("fuzz") / "model.rnc"
    save_checkpoint(model, path)
    manifest, blobs = _parts(path.read_bytes())
    return path, json.dumps(manifest), blobs


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


_JSON_VALUES = st.sampled_from([None, True, 0, 2, -1, 1.5, "x", [], {}, [1, 2], {"k": 1}])


@settings(max_examples=200, deadline=None)
@given(where=st.integers(min_value=0), delete=st.booleans(), value=_JSON_VALUES)
def test_mutated_manifest_loads_or_is_a_checkpoint_error(manifest_and_blobs, where, delete, value):
    # each edited file is signed again, so that it reaches the manifest checks
    path, text, blobs = manifest_and_blobs
    manifest = json.loads(text)
    paths = list(_json_paths(manifest))
    target = paths[where % len(paths)]
    if not target:
        manifest = value
    elif delete:
        del _holder(manifest, target)[target[-1]]
    else:
        _set(manifest, target, value)
    path.write_bytes(checkpoint_file(json.dumps(manifest).encode("utf-8"), blobs))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_truncated_or_byte_flipped_file_loads_or_is_a_checkpoint_error(
    manifest_and_blobs, data, truncate
):
    """Cut the file at any offset, or flip any one byte of it: every such
    file is a CheckpointError, since the header's CRC32 covers every byte
    after it. Offsets come as often from the header and manifest as from
    the whole file."""
    path, text, blobs = manifest_and_blobs
    payload = text.encode("utf-8")
    raw = checkpoint_file(payload, blobs)
    head = 20 + len(payload)
    at = data.draw(st.integers(0, head - 1) | st.integers(0, len(raw) - 1), label="offset")
    if truncate:
        raw = raw[:at]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        raw = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path.write_bytes(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the format, read by an independent reader, and bitwise round trips


def _check_against_the_oracle_reader(model, data: bytes) -> None:
    """tests/oracles.read_checkpoint finds every weight and boundary bitwise."""
    manifest, tensors, bins = read_checkpoint(data)
    code = {"float32": "<f4", "float64": "<f8"}[manifest["dtype"]]
    params = model.named_parameters()
    assert list(tensors) == list(params)
    for name, t in params.items():
        assert tensors[name] == np.ascontiguousarray(t.data, dtype=code).tobytes(), name
    assert list(bins) == list(model.prep.bins)
    for name, b in model.prep.bins.items():
        assert bins[name] == b.boundaries.astype("<f8").tobytes(), name


def test_independent_reader_finds_every_weight_and_boundary(saved):
    model, _, path = saved
    _check_against_the_oracle_reader(model, path.read_bytes())


def _bits(x) -> bytes:
    return struct.pack("<d", x)


_BOUNDARY = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    n_num=st.integers(0, 4),
    n_quantiles=st.integers(2, 9),
    task=st.sampled_from(["regression", "classification"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_round_trip_is_bitwise_and_saves_the_same_bytes_again(
    tmp_path_factory, data, n_num, n_quantiles, task, dtype, seed
):
    """Boundaries and normalizer drawn over all finite float64 values (ties
    and -0.0 included). A model takes one n_quantiles for every feature, so
    the count varies between draws; QuantileBins.split is checked on mixed
    counts in test_data."""
    prep, _ = make_dataset(rows=12, n_num=n_num, task=task, seed=seed, n_quantiles=n_quantiles)
    bins = {
        name: QuantileBins(name, np.array(sorted(data.draw(st.lists(_BOUNDARY, min_size=n_quantiles,
                                                                     max_size=n_quantiles)))), n_quantiles)
        for name in prep.bins
    }
    normalizer = None
    if task == "regression":
        normalizer = TargetNormalizer(*(data.draw(_BOUNDARY) for _ in range(3)))
    prep = Preprocessing(prep.schema, bins, normalizer)
    model = RuleNetModel.build(prep, tiny_config(prep, n_quantiles=n_quantiles), seed=seed, dtype=dtype)
    path = tmp_path_factory.mktemp("round-trip") / "model.rnc"
    save_checkpoint(model, path)
    saved_bytes = path.read_bytes()
    _check_against_the_oracle_reader(model, saved_bytes)

    loaded = load_checkpoint(path)
    want, got = model.named_parameters(), loaded.named_parameters()
    assert list(got) == list(want)
    for name in want:
        assert got[name].data.dtype == want[name].data.dtype, name
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
    assert list(loaded.prep.bins) == list(bins)
    for name, b in bins.items():
        assert loaded.prep.bins[name].n_quantiles == b.n_quantiles
        assert loaded.prep.bins[name].boundaries.tobytes() == b.boundaries.tobytes(), name
    if normalizer is None:
        assert loaded.prep.normalizer is None
    else:
        nz = loaded.prep.normalizer
        assert [_bits(v) for v in (nz.mean, nz.std, nz.eps)] == [
            _bits(v) for v in (normalizer.mean, normalizer.std, normalizer.eps)
        ]
    assert loaded.config == model.config

    save_checkpoint(loaded, path)
    assert path.read_bytes() == saved_bytes
