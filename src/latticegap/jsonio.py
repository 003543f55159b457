"""The text of every artifact: `real`, the one format of a real number (17
significant digits, nothing non-finite), JSON documents (`dumps`: sorted
keys, two-space indent) and one-line records (`record`), and atomic writes.

The stdlib encoder prints shortest round-trip floats; artifact files pin
the full 17 significant digits instead so that independently produced
outputs can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path`; rename it over `path` on success.

    A reader never sees a partly written artifact.  A failed write keeps the
    previous file (if any), leaves no temporary and names `path` in its OSError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if "b" not in mode:
        kwargs.setdefault("encoding", "utf-8")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
        raise


def real(x: float) -> str:
    """A real number as every artifact prints it: 17 significant digits,
    which read back to the same double.  Non-finite values are refused."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in artifact output: {x}")
    return format(x, ".17g")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {key!r}")
    return json.dumps(key)


def _scalar(obj) -> str:
    if isinstance(obj, float):
        return real(obj)
    if isinstance(obj, (int, str)) or obj is None:  # bools are ints
        return json.dumps(obj)
    raise TypeError(f"unsupported JSON value: {type(obj).__name__}")


def _render(obj, level: int) -> str:
    if isinstance(obj, dict):
        items = [f"{_key(key)}: {_render(obj[key], level + 1)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [_render(v, level + 1) for v in obj], "[]"
    else:
        return _scalar(obj)
    if not items:
        return brackets
    pad = "\n" + "  " * level
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def record(mapping: dict) -> str:
    """One JSON object of scalars on one line, keys in the order given."""
    return "{" + ", ".join(f"{_key(k)}: {_scalar(v)}" for k, v in mapping.items()) + "}"


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def dump(obj, path) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps(obj))
