"""Type checks shared by every settings class.

``True`` and ``False`` are integers to Python, and Python's ``json`` reads
``NaN`` and ``Infinity`` as floats. No settings field takes any of them as
a number, so the same value is rejected whether the settings come from a
JSON config or are built in Python.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["is_bool", "is_int", "is_real", "reject_bools"]


def is_bool(value) -> bool:
    """True for ``True`` or ``False``."""
    return isinstance(value, bool)


def is_int(value) -> bool:
    """True for an integer that is not a boolean."""
    return isinstance(value, numbers.Integral) and not is_bool(value)


def is_real(value) -> bool:
    """True for a finite number that is not a boolean."""
    if is_bool(value) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def reject_bools(error: type[Exception], /, **fields) -> None:
    """Raise ``error`` for the first of the real-valued ``fields`` that holds
    ``True`` or ``False``."""
    for name, value in fields.items():
        if is_bool(value):
            raise error(f"{name} must not be a boolean, got {value!r}")
