"""One memoization mechanism for the package's exact tables.

``@memo(key)`` keeps a function's results in a dict registered in ``TABLES``
under the function's qualified name, keyed by ``key(*args)``. The key decides
what is shared: ring tables are keyed by ``(p, f)``, so fields that differ
only in ``h`` share them. Entries never change once stored, but for one:
``reduction._glover_checkpoint`` is a per-field holder of the slow route's
stops, which it overwrites with the last k it reached and the fixed stops
it passed (one every q steps), so that the next call resumes the Glover
recursion there instead of walking again from q; it lives here so that
``clear()``, which empties every table, drops it too.

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

TABLES: dict[str, dict] = {}

_MISSING = object()


def _name(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def memo(key):
    """Decorator: memoize a function by ``key``, a function of its
    positional arguments."""
    def decorate(fn):
        table = TABLES.setdefault(_name(fn), {})

        @functools.wraps(fn)
        def wrapper(*args):
            k = key(*args)
            value = table.get(k, _MISSING)
            if value is _MISSING:
                value = table[k] = fn(*args)
            return value

        wrapper.table = MappingProxyType(table)
        return wrapper

    return decorate


def clear() -> None:
    """Empty every memo table."""
    for entries in TABLES.values():
        entries.clear()
