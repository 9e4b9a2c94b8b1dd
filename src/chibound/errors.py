"""Exception types, the integer and key checks, and the one binder
from a name-keyed parameter mapping to a function's keyword arguments,
shared across the package."""

import inspect
from functools import cache


def _check_int(value, where, low=0, null_ok=False):
    """Return value if it is an int of at least low, or None when null_ok;
    else raise ValueError naming where.

    The one rule for integer arguments: a bool, a float or a string is
    refused rather than read as a number, before any cache sees it. A
    node budget passes null_ok, since None there means unbounded.
    """
    if value is None and null_ok:
        return value
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer of at least {low}")
        null = " or null" if null_ok else ""
        raise ValueError(f"{where} must be {what}{null}, got {value!r}")
    return value


def _check_keys(obj, known, where):
    """ValueError naming the keys of obj outside known, so that a misspelt
    key is refused rather than ignored."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known: {', '.join(known) or 'none'}")


# the default of a parameter that has none
_REQUIRED = inspect.Parameter.empty


@cache
def _parameters(fn, skip=0):
    """{name: default} of fn's parameters after the first skip, in
    signature order, _REQUIRED for a parameter without a default. Read
    once per function; the dict is shared, so callers only read it."""
    return {p.name: p.default for p in list(inspect.signature(fn).parameters.values())[skip:]}


def _keyword_args(fn, params, where, skip=0):
    """The keyword arguments fn takes after its first skip parameters, from
    the mapping params, in signature order and with defaults filled in.
    ValueError naming the keys of params that are not parameters of fn, or
    the parameters without a default that params lacks. This is the one
    binder for every name-keyed table: checks, generators, trees and
    lemmas."""
    defaults = _parameters(fn, skip)
    if not params.keys() <= defaults.keys():
        _check_keys(params, defaults, where)
    args = {p: params.get(p, d) for p, d in defaults.items()}
    if _REQUIRED in args.values():
        missing = [p for p, v in args.items() if v is _REQUIRED]
        raise ValueError(f"{where} needs {', '.join(defaults)}; missing {missing}")
    return args


class GraphParseError(ValueError):
    """Malformed graph text. Carries the 1-based line (and optional column)."""

    def __init__(self, message, line=None, offset=None):
        super().__init__(message)
        self.line = line
        self.offset = offset

    def __str__(self):
        if self.line is None:
            return self.args[0]
        return f"{self.args[0]} (line {self.line}" + (f", offset {self.offset})" if self.offset is not None else ")")


class BudgetExceeded(Exception):
    """A bounded search ran out of budget. The outcome is indeterminate,
    never a refutation."""


class ColoringBudgetExceeded(BudgetExceeded):
    """Carries the best chromatic bounds proved before the budget ran out."""

    def __init__(self, lower, upper):
        super().__init__(f"coloring budget exceeded; {lower} <= chi <= {upper}")
        self.lower = lower
        self.upper = upper


class SearchBudgetExceeded(BudgetExceeded):
    def __init__(self, what="search"):
        super().__init__(f"{what} node budget exceeded; result indeterminate")


class ConstructionError(ValueError):
    """A generator's input failed a required property; names the property.
    A ValueError, so the CLI reports it as bad input."""

    def __init__(self, prop, message=""):
        super().__init__(f"construction requirement failed: {prop}" + (f" ({message})" if message else ""))
        self.prop = prop


class ConstructionRefuted(Exception):
    """All gadgets were attached and the chromatic number never rose.
    This is an experimental outcome; the attachment log is preserved."""

    def __init__(self, log):
        super().__init__(f"chromatic number did not increase after {len(log)} gadgets")
        self.log = log


class ThresholdTooLarge(Exception):
    """Exact evaluation would exceed the digit budget. Carries the name of
    the blocked subterm."""

    def __init__(self, where):
        super().__init__(f"exact value too large at {where}")
        self.where = where
