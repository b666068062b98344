"""Bit-exact model serialization.

File layout:

    [8 bytes]  little-endian uint64: manifest length in bytes
    [manifest] UTF-8 JSON: format version, config, schema + fingerprint,
               preprocessing state, tensor directory (name/shape/offset)
    [blobs]    the parameter arrays, raw little-endian floats, row-major,
               concatenated in directory order; offsets are relative to
               the start of this section

Format version 2 stores the whole feature block as one tensor,
`embed.table`, in the row order `rulenet.embedding` documents. Version 1
stored one tensor per feature; it is refused with a VersionError.

The schema fingerprint is recomputed from the stored schema on load and
compared against the stored value, so a manifest edited after saving is
rejected rather than silently trusted. Every other way a manifest can be
malformed (a missing key, a value of the wrong JSON type, a config or
preprocessing state that no model fits) is also reported as a
CheckpointError.

Checkpoints, the CLI's JSON and CSV artifacts and study files are written
with `atomic_open`, so a write that fails partway leaves the previous file
in place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import uuid

import numpy as np

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

FORMAT_VERSION = 2

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(model: RuleNetModel, path) -> None:
    params = model.named_parameters()
    dtype_name = np.dtype(model.dtype).name
    code = _DTYPE_CODES[dtype_name]
    itemsize = np.dtype(code).itemsize

    directory = []
    blobs = []
    offset = 0
    for name, t in params.items():
        raw = np.ascontiguousarray(t.data, dtype=code).tobytes()
        directory.append({"name": name, "shape": list(t.data.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
        assert len(raw) == t.data.size * itemsize

    prep = model.prep
    manifest = {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_name,
        "config": model.config.to_json(),
        "schema": prep.schema.to_json(),
        "schema_fingerprint": prep.schema.fingerprint(),
        "preprocessing": {
            "bins": {
                name: {"boundaries": b.boundaries.tolist(), "n_quantiles": b.n_quantiles}
                for name, b in prep.bins.items()
            },
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
    with atomic_open(path, binary=True) as fh:
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for raw in blobs:
            fh.write(raw)


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

    if len(data) < 8:
        raise TruncationError(f"{path}: file too short for the length header")
    (manifest_len,) = struct.unpack("<Q", data[:8])
    if manifest_len > len(data) - 8:
        raise TruncationError(
            f"{path}: header claims a {manifest_len}-byte manifest, "
            f"only {len(data) - 8} bytes follow"
        )
    try:
        manifest = json.loads(data[8 : 8 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {e}") from e

    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    _check_manifest(manifest, path)

    schema = DatasetSchema.from_json(manifest["schema"])
    stored_fp = manifest.get("schema_fingerprint")
    if schema.fingerprint() != stored_fp:
        raise FingerprintError(
            f"{path}: stored schema fingerprint {stored_fp!r} does not match the stored schema"
        )

    dtype_name = manifest.get("dtype", "float32")
    if dtype_name not in _DTYPE_CODES:
        raise CheckpointError(f"{path}: unsupported tensor dtype {dtype_name!r}")
    code = _DTYPE_CODES[dtype_name]
    itemsize = np.dtype(code).itemsize

    pp = manifest["preprocessing"]
    if set(pp["bins"]) != {c.name for c in schema.numerical_features}:
        raise CheckpointError(f"{path}: quantile bins do not match the numerical features")
    if (pp["normalizer"] is None) == (schema.task == TASK_REGRESSION):
        raise CheckpointError(f"{path}: a target normalizer belongs to regression checkpoints only")
    try:
        schema.validate()
        bins = {
            name: QuantileBins(name, np.asarray(b["boundaries"], dtype=np.float64), b["n_quantiles"])
            for name, b in pp["bins"].items()
        }
        normalizer = None
        if pp["normalizer"] is not None:
            nz = pp["normalizer"]
            normalizer = TargetNormalizer(nz["mean"], nz["std"], nz["eps"])
        prep = Preprocessing(schema=schema, bins=bins, normalizer=normalizer)
        config = RuleNetConfig.from_json(manifest["config"])
        dtype = np.dtype(dtype_name).type
        model = RuleNetModel(prep, config, _Unfilled(dtype), dtype)
    except (ConfigError, ContractError, SchemaError) as e:
        raise CheckpointError(f"{path}: manifest describes no valid model: {e}") from e
    params = model.named_parameters()

    directory = {entry["name"]: entry for entry in manifest["tensors"]}
    missing = set(params) - set(directory)
    extra = set(directory) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor directory mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )

    blob_start = 8 + manifest_len
    for name, t in params.items():
        shape, offset = directory[name].get("shape"), directory[name].get("offset")
        if type(shape) is not list or tuple(shape) != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape}, model expects {t.data.shape}"
            )
        if type(offset) is not int or offset < 0:
            raise CheckpointError(f"{path}: tensor {name!r} has offset {offset!r}")
        lo = blob_start + offset
        hi = lo + t.data.size * itemsize
        if hi > len(data):
            raise TruncationError(f"{path}: tensor {name!r} extends past end of file")
        t.data = np.frombuffer(data, code, t.data.size, lo).reshape(t.data.shape).copy()
    return model


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
    need(
        all(
            of(b, dict) and all_of(b.get("boundaries"), int, float) and of(b.get("n_quantiles"), int)
            for b in pp["bins"].values()
        ),
        "quantile bins lack their boundaries or count",
    )
    need("normalizer" in pp, "preprocessing has no normalizer entry")
    nz = pp["normalizer"]
    need(
        nz is None or (of(nz, dict) and all_of([nz.get(k) for k in ("mean", "std", "eps")], int, float)),
        "normalizer lacks its mean, std or eps",
    )

    tensors = m.get("tensors")
    need(all_of(tensors, dict) and all_of([e.get("name") for e in tensors], str), "a tensor has no name")
