"""The CLI's JSON text: exactly the bytes of json.dumps(obj, sort_keys=True,
indent=2), written from one explicit stack.

json.dumps falls back to its pure-Python encoder when it is given an indent,
and both of json's encoders recurse, so a formula's JSON, which nests as
deep as the formula, runs out of stack.  This writer keeps its open
containers on a list instead and writes the common flat shapes in bulk:

- scalars go through json's own helpers: encode_basestring_ascii for
  strings, int.__repr__ for ints, and true/false/null;
- a list of scalars is one str.join;
- a dict whose values are scalars or lists of scalars (a "record") is one
  %-format, built from its sorted keys once per key tuple and nesting level.

It writes only what the CLI's payloads hold: dicts with str keys, lists,
tuples, str, int, bool and None, each of exactly that type, and Encoded text
(the prover's trace), written as it is.  Anything else (a float, another
subclass, a non-str key) raises TypeError, and a container that contains
itself raises ValueError, as in json.  Every cache is an lru_cache with a
bound, and indentation is built when a level is first met, so a deep formula
grows nothing without limit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

INDENT = "  "


class Encoded(str):
    """JSON text, laid out for the level where it stands, written as it is."""


# encoders of the scalars by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__, Encoded: str}
_scalar = _SCALARS.__getitem__      # KeyError: not a scalar


def _apply(encoder, v) -> str:
    return encoder(v)


def _key(k) -> str:
    """A dict key as json writes it."""
    if type(k) is not str:
        raise TypeError("keys must be str, not %s" % k.__class__.__name__)
    return encode_basestring_ascii(k)


# -- the flat shapes: a KeyError from a type lookup means "not flat" --------
# Levels count indentation steps: a value at level L that opens a container
# writes its items at level L + 1 and its closing bracket at level L.

@lru_cache(maxsize=128)
def _scalar_list(level: int):
    """Encoder of a list of scalars at level."""
    inner = "\n" + INDENT * (level + 1)
    head, sep, tail = "[" + inner, "," + inner, "\n" + INDENT * level + "]"

    def write(v) -> str:
        if not v:
            return "[]"
        return head + sep.join(map(_apply, map(_scalar, map(type, v)), v)) + tail
    return write


@lru_cache(maxsize=128)
def _field(level: int):
    """type -> encoder of a record's value or a list's item at level: a
    scalar or a list of scalars."""
    scalars = _scalar_list(level)
    return {**_SCALARS, list: scalars, tuple: scalars}.__getitem__


@lru_cache(maxsize=128)
def _record_format(level: int, keys: tuple):
    """(format, getter, field encoders) of a non-empty dict with this key
    tuple at level."""
    names = sorted(keys)
    inner = "\n" + INDENT * (level + 1)
    fmt = ("{" + inner + ("," + inner).join(
        _key(k).replace("%", "%%") + ": %s" for k in names)
        + "\n" + INDENT * level + "}")
    getter = (itemgetter(*names) if len(names) > 1
              else lambda d, k=names[0]: (d[k],))
    return fmt, getter, _field(level + 1)


def _record(d: dict, level: int) -> str:
    fmt, getter, field = _record_format(level, tuple(d))
    values = getter(d)
    return fmt % tuple(map(_apply, map(field, map(type, values)), values))


def _list(v, level: int) -> str:
    """A non-empty list at level whose items are scalars or lists of
    scalars."""
    inner = "\n" + INDENT * (level + 1)
    item = _field(level + 1)
    return ("[" + inner + ("," + inner).join(map(_apply, map(item, map(type, v)), v))
            + "\n" + INDENT * level + "]")


# -- the explicit stack ------------------------------------------------------

def encode(obj) -> list[str]:
    """The text of json.dumps(obj, sort_keys=True, indent=2), as a list of
    pieces to be written in order."""
    out: list[str] = []
    put = out.append
    stack: list = []        # (parent's items, closing text, id) per open container
    open_ids: set[int] = set()
    items = iter((("", obj),))      # (text before the value, value) pairs
    level = 0                       # the level of the values in items
    while True:
        for before, v in items:
            kind = type(v)
            text = _SCALARS.get(kind)
            if text is not None:
                put(before + text(v))
                continue
            if kind is not dict and kind is not list and kind is not tuple:
                raise TypeError("Object of type %s is not JSON serializable"
                                % kind.__name__)
            if not v:
                put(before + ("{}" if kind is dict else "[]"))
                continue
            try:
                put(before + (_record(v, level) if kind is dict
                              else _list(v, level)))
                continue
            except KeyError:
                pass                # not flat: open it on the stack
            if id(v) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(v))
            inner = "\n" + INDENT * (level + 1)
            if kind is dict:
                pairs = [("," + inner + _key(k) + ": ", value)
                         for k, value in sorted(v.items())]
                pairs[0] = (pairs[0][0][1:], pairs[0][1])
                put(before + "{")
                stack.append((items, "\n" + INDENT * level + "}", id(v)))
                items = iter(pairs)
            else:
                put(before + "[")
                stack.append((items, "\n" + INDENT * level + "]", id(v)))
                items = zip(chain((inner,), repeat("," + inner)), v)
            level += 1
            break
        else:
            if not stack:
                return out
            items, close, ident = stack.pop()
            open_ids.discard(ident)
            put(close)
            level -= 1
