"""Small shared helpers."""

from __future__ import annotations

import re

_DIGITS = re.compile(r"(\d+)")


def natural_key(s: str):
    """Sort key that orders embedded integers numerically ('v2' < 'v11'); the
    string itself breaks ties ('v01' < 'v1'), so the order is total."""
    return tuple(int(tok) if tok.isdigit() else tok for tok in _DIGITS.split(s)), s

