"""Deterministic JSON emission: fixed key order, 17-significant-digit reals.

Golden-file tests compare outputs byte for byte, so floats are printed with
'%.17g' (always round-trips to the same double) and dict keys are emitted
in insertion order. A list or tuple whose items are all of type str (a plan
batch of ids) is emitted with one ``json.dumps`` call, its item separator
carrying the newline and indent, instead of one recursive call per item;
it gives the bytes the item loop would.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import ParseError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return "%.17g" % x


def _emit(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {str}:  # e.g. a plan batch: one C encoder call, the bytes of the loop below
            text = json.dumps(obj, separators=(",\n" + inner, ": "))
            out.append("[\n" + inner + text[1:-1] + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _emit(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            out.append(inner + json.dumps(key) + ": ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # the only other one: an integer literal over Python's digit limit
        raise ParseError(f"integer literal over {sys.get_int_max_str_digits()} digits") from None
