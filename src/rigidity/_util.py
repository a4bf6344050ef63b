"""Small shared helpers."""

from __future__ import annotations

import re
from functools import lru_cache

_DIGITS = re.compile(r"(\d+)")

# Place ids whose sort keys are kept; ids repeat across descriptors.
NATURAL_KEY_CACHE = 1024


@lru_cache(maxsize=NATURAL_KEY_CACHE)
def natural_key(s: str):
    """Sort key that orders embedded integers numerically ('v2' < 'v11'); the
    string itself breaks ties ('v01' < 'v1'), so the order is total."""
    return tuple(int(tok) if tok.isdigit() else tok for tok in _DIGITS.split(s)), s


class HashedOnce:
    """Base of ``eq=False`` frozen dataclasses whose ``__post_init__`` keeps
    the init field values once, by ``_keep_key``, for equality, the hash and
    pickles; a pickle holds no hash, as string hashes differ by process."""

    def _keep_key(self, *key) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), self._key
