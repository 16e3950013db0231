"""Exception hierarchy shared across the package.

Validation problems (bad file contents, bad arguments, inconsistent data)
raise ValidationError; plain I/O failures surface as the builtin OSError
family. The CLI maps the former to exit code 1 and the latter to 2.
``_check_int`` is the one rule for an integer argument or field, and
``_check_real`` the one for a real-valued one.
"""

from __future__ import annotations

import numbers
import operator


class VprError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VprError):
    """Input data or arguments violate a documented contract."""


class MissingPairError(VprError):
    """An inlier count was requested for a pair that is not available.

    Absence is a distinct outcome: zero inliers is a legitimate (maximally
    uncertain) measurement and must never be fabricated for missing pairs.
    """

    def __init__(self, query_id: str, db_id: str):
        self.query_id = query_id
        self.db_id = db_id
        super().__init__(f"no inlier count for ({query_id}, {db_id}): pair not in table")


class MatcherError(VprError):
    """An external matcher invocation failed for one (query, db) pair."""

    def __init__(self, query_id: str, db_id: str, reason: str):
        self.query_id = query_id
        self.db_id = db_id
        super().__init__(f"matcher failed for ({query_id}, {db_id}): {reason}")


class MatcherTimeout(MatcherError):
    """The matcher subprocess exceeded its configured timeout."""


class MatcherExitError(MatcherError):
    """The matcher subprocess exited with a nonzero status."""


class MatcherOutputError(MatcherError):
    """The matcher subprocess produced stdout we cannot parse."""


def _shown(value) -> str:
    """``str(value)``, or the sign and size of an int too long for ``str()`` to write."""
    try:
        return str(value)
    except ValueError:  # over sys.get_int_max_str_digits() digits
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; one that ``operator.index`` refuses, or one below ``minimum``,
    raises ValidationError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {_shown(value)}")
    return value


def _check_real(value, name: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is a ``numbers.Real`` a float can
    hold, such as 1, 0.5 or a numpy scalar; "1", None or 10**400 is not. The caller checks range."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name} must fit in a float, got {_shown(value)}") from None
