"""The CLI's JSON text: exactly the bytes of json.dumps(obj, sort_keys=True,
indent=2), written from one explicit stack.

json.dumps falls back to its pure-Python encoder when it is given an indent,
and both of json's encoders recurse, so a formula's JSON, which nests as
deep as the formula, runs out of stack.  This writer keeps its open
containers on a list instead: a scalar is written with json's own helpers
(encode_basestring_ascii for strings, int.__repr__ for ints, and
true/false/null), and a non-empty container is opened on the stack, its
items written in order, and closed when they run out.

It writes only what the CLI's payloads hold: dicts with str keys, lists,
tuples, str, int, bool and None, each of exactly that type, and Encoded text
(the prover's trace), written as it is.  Anything else (a float, another
subclass, a non-str key) raises TypeError, and a container that contains
itself raises ValueError, as in json.  Indentation is built per container
from its level, so a deep formula grows no cache.
"""

from __future__ import annotations

from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

INDENT = "  "


class Encoded(str):
    """JSON text, laid out for the level where it stands, written as it is."""


# encoders of the scalars by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__, Encoded: str}


def _key(k) -> str:
    """A dict key as json writes it."""
    if type(k) is not str:
        raise TypeError("keys must be str, not %s" % k.__class__.__name__)
    return encode_basestring_ascii(k)


def encode(obj) -> list[str]:
    """The text of json.dumps(obj, sort_keys=True, indent=2), as a list of
    pieces to be written in order."""
    out: list[str] = []
    put = out.append
    stack: list = []        # (parent's items, closing text, id) per open container
    open_ids: set[int] = set()
    items = iter((("", obj),))      # (text before the value, value) pairs
    level = 0                       # indentation steps of the values in items
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
