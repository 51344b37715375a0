"""The one container every pipeline artifact is stored in, and its checked reader.

An archive is an uncompressed npz written at exactly the path given: a
``schema_version`` tag, then named arrays and JSON entries (sorted-key,
compact JSON text as uint8) in the writer's order.  numpy stamps every entry
with one fixed time, so equal inputs give equal bytes.
"""

from __future__ import annotations

import json
import tokenize
import zipfile

import numpy as np

_MAGIC = b"PK\x03\x04"   # every zip archive, npz included, starts so
REMAKE = "files of an earlier format must be made again (collect, segment or train anew)"


def write(path, tag: str, **entries) -> None:
    """Write ``entries`` after the tag ``tag`` as one archive at exactly
    ``path``: an ndarray as it is, any other value as a JSON entry."""
    arrays = {name: value if isinstance(value, np.ndarray) else np.frombuffer(
                  json.dumps(value, sort_keys=True, separators=(",", ":")).encode(), np.uint8)
              for name, value in entries.items()}
    with open(path, "wb") as fh:   # a file handle: savez appends no .npz suffix
        np.savez(fh, schema_version=np.array(tag), **arrays)


def read(path, tag: str, arrays, json_entries=()) -> dict:
    """Every entry of the archive ``write`` made at ``path`` under ``tag``,
    each read once: the ``json_entries`` decoded, the arrays as stored.

    ``arrays`` maps each array entry's name to its (shape, dtype), where a
    ``None`` in a shape matches any length and dtype ``str`` any unicode
    width; or it is a function of the decoded JSON entries that returns that
    map.  A file that is not an archive, a cut archive, a bad CRC, a wrong
    tag, a missing or unexpected entry, bad JSON, JSON that function rejects
    with a KeyError, TypeError or ValueError, and an array of the wrong shape
    or dtype each raise a ValueError that names ``path``.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head != _MAGIC:
            if _MAGIC.startswith(head):
                raise ValueError(f"{path}: cut or corrupt archive ({len(head)} bytes)")
            raise ValueError(f"{path}: not an npz archive; {REMAKE}")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                entries = {name: archive[name] for name in archive.files}
        # a flipped byte can also raise: NotImplementedError ("zip file
        # version ...") and RuntimeError ("... is encrypted") from zipfile, an
        # OSError (EINVAL) from a seek, and TokenError, SyntaxError or
        # TypeError from parsing an .npy header
        except (EOFError, ValueError, zipfile.BadZipFile, RuntimeError, OSError,
                tokenize.TokenError, SyntaxError, TypeError) as exc:
            raise ValueError(f"{path}: cut or corrupt archive "
                             f"({type(exc).__name__}: {exc})") from None
    found = str(entries.pop("schema_version")) if "schema_version" in entries else None
    if found != tag:
        raise ValueError(f"{path}: schema version mismatch: expected {tag!r}, found "
                         f"{found!r}" + (f"; {REMAKE}" if found is None else ""))
    for name in json_entries:
        if name not in entries:
            raise ValueError(f"{path}: missing members [{name!r}]")
        try:
            entries[name] = json.loads(entries[name].tobytes())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: bad JSON in entry {name!r} ({exc})") from None
    if callable(arrays):
        try:
            arrays = arrays({name: entries[name] for name in json_entries})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: JSON entries do not describe this artifact "
                             f"({type(exc).__name__}: {exc})") from None
    expected = {*json_entries, *arrays}
    if set(entries) != expected:
        raise ValueError(f"{path}: missing members {sorted(expected - set(entries))}, "
                         f"unexpected members {sorted(set(entries) - expected)}")
    for name, (shape, dtype) in arrays.items():
        arr, want = entries[name], np.dtype(dtype)
        if ((arr.dtype.kind != "U" if want.kind == "U" else arr.dtype != want)
                or arr.ndim != len(shape)
                or any(n is not None and n != m for n, m in zip(shape, arr.shape))):
            raise ValueError(f"{path}: entry {name!r} has shape {arr.shape} and dtype "
                             f"{arr.dtype}, expected {shape} and {want}")
    return entries
