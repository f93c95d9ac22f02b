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
    return _encode(obj, 0) + "\n"


def _encode(obj: Any, level: int) -> str:
    """The text of ``obj`` at nesting ``level``: a scalar is its own text, a
    container the join of its items' texts between its brackets."""
    if isinstance(obj, (float, np.floating)):   # first: most of every report
        return _format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):   # before int, of which bool is a subclass
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{encode_basestring(str(k))}: {_encode(v, level + 1)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        brackets = "[]"
        items = [_encode(v, level + 1) for v in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    pad = "\n" + "  " * level
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + pad + brackets[1]
