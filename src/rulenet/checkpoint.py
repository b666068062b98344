"""Bit-exact model serialization.

File layout, format version 3 (every integer little-endian):

    [4 bytes]  magic b"RNCK"
    [4 bytes]  uint32: format version
    [4 bytes]  uint32: zlib.crc32 of every byte after these 12
    [8 bytes]  uint64: manifest length in bytes
    [manifest] UTF-8 JSON: tensor dtype, config, schema + fingerprint,
               preprocessing state, tensor directory (name/shape/offset)
    [blobs]    raw little-endian floats, row-major, at the directory's
               offsets, which are relative to the start of this section:
               each parameter in the model's dtype (float32 or float64),
               then the quantile bins as the float64 section "bins"

The preprocessing state lists the numerical features' names in schema
order (`bins.features`) and their counts (`bins.n_quantiles`); the "bins"
section holds their boundaries end to end in that order, sum(n_quantiles)
values. The whole feature block is the one tensor `embed.table`, in the
row order `rulenet.embedding` documents.

Load checks the version, then the CRC, before it parses the manifest, so
a file cut short or with a byte changed after the header is refused (CRC32
catches any change within 4 bytes, and misses wider damage with odds of
about 2^-32).
Version 2 (a uint64 manifest length, then a JSON manifest that held the
bin boundaries and its own `format_version`) and version 1 (one tensor per
feature) are refused with a VersionError naming their version; retrain to
migrate.

The schema fingerprint is recomputed from the stored schema on load and
compared against the stored value. Every other way a manifest can be
malformed (a missing key, a value of the wrong JSON type, a config or
preprocessing state that no model fits) is also reported as a
CheckpointError, and so are bin boundaries that are not finite and
non-decreasing within each feature.

Checkpoints, the CLI's JSON and CSV artifacts and study files are written
with `atomic_open`, so a write that fails partway leaves the previous file
in place.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import uuid
import zlib

import numpy as np

from . import tensor as T
from .data import (
    KIND_CATEGORICAL,
    TASK_REGRESSION,
    DatasetSchema,
    Preprocessing,
    QuantileBins,
    TargetNormalizer,
)
from .errors import (
    ArtifactWriteError,
    CheckpointError,
    ConfigError,
    ContractError,
    FingerprintError,
    SchemaError,
    TruncationError,
    VersionError,
)
from .model import RuleNetConfig, RuleNetModel

FORMAT_VERSION = 3

_MAGIC = b"RNCK"
_HEADER = struct.Struct("<4sII")  # magic, format version, CRC32 of the rest
_LENGTH = struct.Struct("<Q")  # manifest length, the first bytes the CRC covers
_BINS = "bins"  # the directory entry of the float64 bin boundaries


def save_checkpoint(model: RuleNetModel, path) -> None:
    dtype_name = np.dtype(model.dtype).name
    code = np.dtype(dtype_name).newbyteorder("<")
    prep = model.prep
    sections = [(name, np.ascontiguousarray(t.data, dtype=code)) for name, t in model.named_parameters().items()]
    features = [c.name for c in prep.schema.numerical_features]
    bins = [prep.bins[name] for name in features]
    boundaries = np.concatenate([np.empty(0), *(b.boundaries for b in bins)])  # maybe no bins
    sections.append((_BINS, boundaries.astype("<f8", copy=False)))

    directory = []
    blobs = []
    offset = 0
    for name, a in sections:
        raw = a.tobytes()
        directory.append({"name": name, "shape": list(a.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)

    manifest = {
        "dtype": dtype_name,
        "config": model.config.to_json(),
        "schema": prep.schema.to_json(),
        "schema_fingerprint": prep.schema.fingerprint(),
        "preprocessing": {
            "bins": {"features": features, "n_quantiles": [b.n_quantiles for b in bins]},
            "normalizer": (
                None
                if prep.normalizer is None
                else {
                    "mean": prep.normalizer.mean,
                    "std": prep.normalizer.std,
                    "eps": prep.normalizer.eps,
                }
            ),
        },
        "tensors": directory,
    }
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    body = [_LENGTH.pack(len(payload)), payload, *blobs]
    crc = 0
    for part in body:
        crc = zlib.crc32(part, crc)
    with atomic_open(path, binary=True) as fh:
        fh.write(_HEADER.pack(_MAGIC, FORMAT_VERSION, crc))
        for part in body:
            fh.write(part)


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Write a new file beside `path` and move it onto `path` when the block
    exits cleanly, so that no reader ever sees a partly written file.

    If the block raises, the new file is removed and `path` is left as it
    was; an OSError becomes an ArtifactWriteError naming `path`. There is
    no fsync: this guards against a failed or interrupted write, not
    against losing power.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise ArtifactWriteError.at(path, e) from e
        raise


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True), failing as an ArtifactWriteError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ArtifactWriteError.at(path, e) from e


def load_checkpoint(path) -> RuleNetModel:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e

    start = _HEADER.size + _LENGTH.size  # of the manifest
    if len(data) < start:
        raise TruncationError(f"{path}: file too short for the header")
    magic, version, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        version = _legacy_version(data)
        if version is None:
            raise CheckpointError(f"{path}: not a rulenet checkpoint")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (manifest_len,) = _LENGTH.unpack_from(data, _HEADER.size)
    if manifest_len > len(data) - start:
        raise TruncationError(
            f"{path}: header claims a {manifest_len}-byte manifest, "
            f"only {len(data) - start} bytes follow"
        )
    if zlib.crc32(memoryview(data)[_HEADER.size :]) != crc:
        raise CheckpointError(f"{path}: checksum mismatch: the file is corrupt or cut short")
    try:
        manifest = json.loads(data[start : start + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {e}") from e

    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    _check_manifest(manifest, path)

    schema = DatasetSchema.from_json(manifest["schema"])
    stored_fp = manifest.get("schema_fingerprint")
    if schema.fingerprint() != stored_fp:
        raise FingerprintError(
            f"{path}: stored schema fingerprint {stored_fp!r} does not match the stored schema"
        )

    dtype_name = manifest.get("dtype", "float32")
    if dtype_name not in T.DTYPES:
        raise CheckpointError(f"{path}: unsupported tensor dtype {dtype_name!r}")
    code = np.dtype(dtype_name).newbyteorder("<")

    pp = manifest["preprocessing"]
    features, n_quantiles = pp["bins"]["features"], pp["bins"]["n_quantiles"]
    if features != [c.name for c in schema.numerical_features]:
        raise CheckpointError(f"{path}: quantile bins do not match the numerical features")
    if (pp["normalizer"] is None) == (schema.task == TASK_REGRESSION):
        raise CheckpointError(f"{path}: a target normalizer belongs to regression checkpoints only")

    directory = {entry["name"]: entry for entry in manifest["tensors"]}
    blob_start = start + manifest_len

    def section(name, shape, code):
        """The directory's section `name` as a new array of `shape`."""
        if name not in directory:
            raise CheckpointError(f"{path}: tensor directory has no {name!r}")
        stored, offset = directory[name].get("shape"), directory[name].get("offset")
        if type(stored) is not list or tuple(stored) != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {stored}, model expects {shape}")
        if type(offset) is not int or offset < 0:
            raise CheckpointError(f"{path}: tensor {name!r} has offset {offset!r}")
        size = math.prod(shape)
        lo = blob_start + offset
        if lo + size * np.dtype(code).itemsize > len(data):
            raise TruncationError(f"{path}: tensor {name!r} extends past end of file")
        return np.frombuffer(data, code, size, lo).reshape(shape).copy()

    try:
        schema.validate()
        boundaries = section(_BINS, (sum(n_quantiles),), "<f8")
        bins = QuantileBins.split(features, n_quantiles, boundaries)
        normalizer = None
        if pp["normalizer"] is not None:
            nz = pp["normalizer"]
            normalizer = TargetNormalizer(nz["mean"], nz["std"], nz["eps"])
        prep = Preprocessing(schema=schema, bins=bins, normalizer=normalizer)
        config = RuleNetConfig.from_json(manifest["config"])
        dtype = np.dtype(dtype_name).type
        model = RuleNetModel(prep, config, _Unfilled(dtype), dtype)
    except (ConfigError, ContractError, SchemaError) as e:
        raise CheckpointError(f"{path}: checkpoint describes no valid model: {e}") from e
    params = model.named_parameters()

    missing = set(params) - set(directory)
    extra = set(directory) - set(params) - {_BINS}
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor directory mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    for name, t in params.items():
        t.data = section(name, t.data.shape, code)
    return model


def _legacy_version(data: bytes):
    """The format_version a version 1 or 2 file states, or None if `data`
    is not one: those began with a uint64 manifest length and a JSON
    manifest that held the version."""
    try:
        (n,) = _LENGTH.unpack_from(data)
        version = json.loads(data[_LENGTH.size : _LENGTH.size + n]).get("format_version")
    except (ValueError, AttributeError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return None
    return version if type(version) is int else None


class _Unfilled:
    """Stands in for the init rng: allocates each parameter without drawing
    it, since the loader fills every one from the file."""

    def __init__(self, dtype):
        self.dtype = dtype

    def _empty(self, *_, size):
        return np.empty(size, self.dtype)

    normal = uniform = _empty


def _check_manifest(m: dict, path) -> None:
    """Raise CheckpointError unless every field the loader reads has its JSON type.

    json.loads builds exact builtin types, so comparing type() suffices, and
    it keeps true/false from passing for numbers.
    """

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointError(f"{path}: malformed manifest: {what}")

    def of(value, *types) -> bool:
        return type(value) in types

    def all_of(values, *types) -> bool:
        return type(values) is list and set(map(type, values)) <= set(types)

    need(of(m.get("dtype", "float32"), str), "dtype is not a string")
    need(of(m.get("schema_fingerprint"), str), "schema_fingerprint is not a string")
    need(of(m.get("config"), dict), "config is not an object")

    schema = m.get("schema")
    need(of(schema, dict) and all_of(schema.get("columns"), dict), "schema has no column list")
    need(of(schema.get("task"), str, type(None)), "schema task is not a string")
    need(of(schema.get("n_classes"), int, type(None)), "schema n_classes is not an integer")
    need(
        all(
            of(c.get("name"), str)
            and of(c.get("kind"), str)
            and of(c.get("numeric_like", False), bool)
            and (all_of(c.get("vocab"), str) or (c.get("vocab") is None and c["kind"] != KIND_CATEGORICAL))
            for c in schema["columns"]
        ),
        "a column lacks a name, a kind or a vocabulary",
    )

    pp = m.get("preprocessing")
    need(of(pp, dict) and of(pp.get("bins"), dict), "preprocessing has no bins")
    features, n_quantiles = pp["bins"].get("features"), pp["bins"].get("n_quantiles")
    need(
        all_of(features, str) and all_of(n_quantiles, int) and len(features) == len(n_quantiles),
        "quantile bins lack their feature names or counts",
    )
    need(min(n_quantiles, default=2) >= 2, "a feature has fewer than 2 quantiles")
    need("normalizer" in pp, "preprocessing has no normalizer entry")
    nz = pp["normalizer"]
    need(
        nz is None or (of(nz, dict) and all_of([nz.get(k) for k in ("mean", "std", "eps")], int, float)),
        "normalizer lacks its mean, std or eps",
    )

    tensors = m.get("tensors")
    need(all_of(tensors, dict) and all_of([e.get("name") for e in tensors], str), "a tensor has no name")
