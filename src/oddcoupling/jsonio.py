"""Deterministic JSON emission.

Floats are printed with 17 significant digits so every 64-bit value
round-trips exactly and identical runs produce byte-identical reports.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False)
from typing import Any

import numpy as np

from .errors import NumericalError


def _format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise NumericalError(f"cannot serialize non-finite float {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return format(v, ".17g")


def dumps(obj: Any) -> str:
    """Serialize dicts/lists/scalars with fixed float formatting."""
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str], level: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        keyed = isinstance(obj, dict)
        vals = obj.values() if keyed else list(obj)
        if not vals:
            out.append("{}" if keyed else "[]")
            return
        # a dict item opens with its key head, a sequence item with the bare
        # pad; a head built as its item is written keeps peak memory down
        pad, keys = "  " * (level + 1), iter(obj)
        out.append("{\n" if keyed else "[\n")
        last = len(vals) - 1
        for i, val in enumerate(vals):
            out.append(pad + encode_basestring(str(next(keys))) + ": " if keyed else pad)
            _write(val, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append("  " * level + ("}" if keyed else "]"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
