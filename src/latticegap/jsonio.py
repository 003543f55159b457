"""Deterministic JSON output (sorted keys, two-space indent, floats at 17
significant digits), and atomic artifact writes.

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


def _render(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {_render(obj[key], level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_render(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in JSON output: {obj}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported JSON value: {type(obj).__name__}")


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def dump(obj, path) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps(obj))
