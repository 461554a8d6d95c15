"""One memoization mechanism for the package's exact tables.

``@memo`` keeps a function's results in a dict registered in ``TABLES``
under the function's qualified name, keyed by its positional arguments, a
``FieldParams`` first one as ``(p, f)``: the tables depend on the field
alone, so fields that differ only in ``h`` share them. Default arguments
are refused, as a call could be keyed two ways. Entries never change once
stored, but for one: ``reduction._glover_checkpoint`` is a per-field holder
of the slow route's stops, which it overwrites with the last k it reached
and the fixed stops it passed (one every q steps), so that the next call
resumes the Glover recursion there instead of walking again from q; it
lives here so that ``clear()``, which empties every table, drops it too.

A table may be read while it fills: ``f.table`` is a read-only view of
``f``'s entries by key, and reading it never calls ``f``. So an entry under
construction can take what it shares with entries already built
(``ring._product_row`` takes [L_a][L_b] from row b when row b is stored)
without building any, and the order entries are asked in decides only
which of them computes a shared part.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .params import FieldParams

TABLES: dict[str, dict] = {}

_MISSING = object()


def _name(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def memo(fn):
    """Decorator: memoize ``fn`` by the key rule of the module docstring."""
    if fn.__defaults__ or fn.__kwdefaults__:
        raise TypeError(f"{_name(fn)} has default arguments")
    table = TABLES.setdefault(_name(fn), {})

    @functools.wraps(fn)
    def wrapper(first, *rest):
        key = ((first.p, first.f) if isinstance(first, FieldParams)
               else (first,)) + rest
        value = table.get(key, _MISSING)
        if value is _MISSING:
            value = table[key] = fn(first, *rest)
        return value

    wrapper.table = MappingProxyType(table)
    return wrapper


def clear() -> None:
    """Empty every memo table."""
    for entries in TABLES.values():
        entries.clear()
