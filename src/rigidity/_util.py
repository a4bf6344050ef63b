"""Small shared helpers."""

from __future__ import annotations

import math
import re
import sys
from _weakref import _remove_dead_weakref  # the atomic removal WeakValueDictionary uses
from dataclasses import fields
from functools import lru_cache
from weakref import ref

_DIGITS = re.compile(r"(\d+)")

# Entries kept by each memoized pure function: place ids, whose sort keys
# repeat across descriptors, and the tables of ``invariants``, whose ranks
# (and so moduli and classes) are unbounded input; a descriptor touches a
# handful of entries.
MEMO_SIZE = 1024
_memo = lru_cache(maxsize=MEMO_SIZE)


@_memo
def natural_key(s: str):
    """Sort key that orders embedded integers numerically ('v2' < 'v11'); the
    string itself breaks ties ('v01' < 'v1'), so the order is total."""
    return tuple(int(tok) if tok.isdigit() else tok for tok in _DIGITS.split(s)), s


def count_text(n: int) -> str:
    """A count as decimal text, which cannot raise: exact up to 4,300 digits,
    Python's default limit on int-to-text conversion (or the interpreter's,
    if lower), else its first six digits and its digit count."""
    most = min(4300, getattr(sys, "get_int_max_str_digits", int)() or 4300)
    digits = int(n.bit_length() * math.log10(2))  # the digit count, or one less
    digits += 10 ** digits <= n
    return str(n) if digits <= most else f"{n // 10 ** (digits - 6)}... ({digits} digits)"


class _Pooling(type):
    def __call__(cls, *args, **kwargs):
        key = cls._reduce(*args, **kwargs)
        pool, entry = cls._pool, cls._pool.get(key)
        obj = entry and entry()
        if obj is None:
            new = super().__call__(*key)
            # the bound remover outlives module teardown; one setdefault publishes,
            # and a dead entry still awaiting its callback is removed, then retried
            mine = ref(new, lambda _, remove=_remove_dead_weakref: remove(pool, key))
            while (obj := pool.setdefault(key, mine)()) is None:
                _remove_dead_weakref(pool, key)
        return obj


class Interned(metaclass=_Pooling):
    """Base of hash-consed ``eq=False`` frozen dataclasses: a call gets the
    one live object with the field values the class's ``_reduce`` checks and
    returns, built only on a miss, so equality and the hash are ``object``'s.
    The pool's weak references remove themselves; pickles, copies and
    ``replace`` call the class.  (Filliatre and Conchon, ML Workshop 2006.)"""

    def __init_subclass__(cls):
        cls._pool = {}

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))
