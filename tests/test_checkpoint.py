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
from rulenet.errors import (
    CheckpointError,
    FingerprintError,
    TruncationError,
    VersionError,
)

from helpers import tiny_model


@pytest.fixture()
def saved(tmp_path):
    model, batch = tiny_model(seed=31, dtype=np.float32, missing_rate=0.2)
    path = tmp_path / "model.rnc"
    save_checkpoint(model, path)
    return model, batch, path


def _rewrite_manifest(path, mutate):
    """Edit the manifest JSON in place, fixing the length prefix."""
    data = path.read_bytes()
    (mlen,) = struct.unpack("<Q", data[:8])
    manifest = json.loads(data[8 : 8 + mlen])
    mutate(manifest)
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(payload)) + payload + data[8 + mlen :])


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
    path.write_bytes(struct.pack("<Q", 10**9) + b"{}")
    with pytest.raises(TruncationError):
        load_checkpoint(path)


def test_truncated_blob_section(saved):
    _, _, path = saved
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(TruncationError, match="past end"):
        load_checkpoint(path)


def test_garbage_manifest(saved):
    _, _, path = saved
    path.write_bytes(struct.pack("<Q", 5) + b"ruleN" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_future_version_is_refused(saved):
    # so is the previous version, which stored one tensor per feature
    _, _, path = saved
    for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):

        def stamp(m):
            m["format_version"] = version

        _rewrite_manifest(path, stamp)
        with pytest.raises(VersionError, match=f"format version {version}, expected"):
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


def _first_boundary(manifest, i):
    """Key path of boundary i of the first numerical feature's bins."""
    return ("preprocessing", "bins", next(iter(manifest["preprocessing"]["bins"])), "boundaries", i)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.pop("schema"),
        lambda m: _set(m, ("schema",), [m["schema"]]),
        lambda m: m.pop("config"),
        lambda m: m["config"].pop("n_features"),
        lambda m: _set(m, ("config", "n_rules"), "many"),
        lambda m: _set(m, ("preprocessing", "bins"), {}),
        lambda m: _set(m, ("preprocessing", "normalizer"), None),
        lambda m: _set(m, ("tensors", 0, "offset"), -8),
        lambda m: _set(m, _first_boundary(m, 0), math.nan),
        lambda m: _set(m, _first_boundary(m, -1), math.inf),
    ],
    ids=[
        "no-schema", "list-schema", "no-config", "no-n_features", "string-n_rules",
        "no-bins", "no-normalizer", "negative-offset", "nan-bin", "infinite-bin",
    ],
)
def test_malformed_manifest_is_a_checkpoint_error(saved, mutate):
    _, _, path = saved
    _rewrite_manifest(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_top_level_json_list_is_a_checkpoint_error(saved):
    _, _, path = saved
    payload = b"[1, 2]"
    path.write_bytes(struct.pack("<Q", len(payload)) + payload)
    with pytest.raises(CheckpointError, match="object"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def manifest_and_blobs(tmp_path_factory):
    model, _ = tiny_model(seed=33, dtype=np.float32, missing_rate=0.2)
    path = tmp_path_factory.mktemp("fuzz") / "model.rnc"
    save_checkpoint(model, path)
    data = path.read_bytes()
    (mlen,) = struct.unpack("<Q", data[:8])
    return path, data[8 : 8 + mlen].decode("utf-8"), data[8 + mlen :]


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


_JSON_VALUES = st.sampled_from([None, True, 0, 2, -1, 1.5, "x", [], {}, [1, 2], {"k": 1}])


@settings(max_examples=200, deadline=None)
@given(where=st.integers(min_value=0), delete=st.booleans(), value=_JSON_VALUES)
def test_mutated_manifest_loads_or_is_a_checkpoint_error(manifest_and_blobs, where, delete, value):
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
    payload = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(payload)) + payload + blobs)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_truncated_or_byte_flipped_file_loads_or_is_a_checkpoint_error(
    manifest_and_blobs, data, truncate
):
    """Cut the file at any offset, or flip any one byte of it. Offsets come
    as often from the header and manifest as from the whole file, since a
    flipped weight byte loads cleanly (the blobs carry no checksum)."""
    path, text, blobs = manifest_and_blobs
    payload = text.encode("utf-8")
    raw = struct.pack("<Q", len(payload)) + payload + blobs
    head = 8 + len(payload)
    at = data.draw(st.integers(0, head - 1) | st.integers(0, len(raw) - 1), label="offset")
    if truncate:
        raw = raw[:at]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        raw = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
