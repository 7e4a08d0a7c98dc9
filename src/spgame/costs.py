"""Exact cost arithmetic.

A game holds each metric (one cost per arc) as its integer image, a
`Metric`: one `int` per arc and one positive `scale`, the LCM of the
costs' reduced denominators, so that arc `e` costs exactly
`ints[e] / scale`.  Files are parsed straight into that form
(`parse_ratios`, `Metric.from_ratios`), and a metric built in code from
ints and `fractions.Fraction`s is imaged once, when its game is built
(`Metric.of`).  Sweeps, path sums and comparisons run on the ints, which
a positive scale keeps in the same order and ties; reading `metric[e]`
makes the exact cost, an `int` when it is integral, else a `Fraction`,
and results are made exact the same way, once, on output.  The only
non-rational value ever used is `INF`, which absorbs addition and
dominates comparison exactly as IEEE infinity does.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import InputError

Cost = Union[int, Fraction, float]

INF: float = float("inf")


def is_finite(c: Cost) -> bool:
    # only a float can be INF: a Fraction's comparison with a float goes
    # through the numeric tower's abstract base classes
    return type(c) is not float or c != INF


def _exact(f: Fraction) -> int | Fraction:
    return f.numerator if f.denominator == 1 else f


# the exponent of a spelling such as "25e-1", as `Fraction` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _digit_limit() -> int:
    """The most digits `int` reads from a string or `str` writes, 0 for no
    limit (Pythons before 3.10.7 have none)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _in_limit(n: int, d: int) -> tuple[int, int]:
    """`(n, d)`; a ValueError if either has more digits than `int` reads,
    so that every cost read can be written back."""
    limit = _digit_limit()
    top = max(abs(n), d)
    # fewer than 3 * limit bits is fewer than limit digits
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise ValueError(f"more than {limit} digits")
    return n, d


def _fraction(value: str) -> tuple[int, int]:
    """`(numerator, denominator)` of `Fraction(value)`, within the digit
    limit.  `Fraction` reads at most 2 * limit digits before an exponent,
    so an exponent beyond 3 * limit either way puts any value but 0 past
    the limit; such a value is read with exponent 0 instead, and refused
    unless 0, before `Fraction` makes the power of ten."""
    limit = _digit_limit()
    exponent = _EXPONENT.search(value)
    if limit and exponent and abs(int(exponent[1])) > 3 * limit:
        if Fraction(value[: exponent.start(1)] + "0"):
            raise ValueError(f"exponent out of range in {value!r}")
        return 0, 1
    f = Fraction(value)
    return _in_limit(f.numerator, f.denominator)


def _ratio(value: str) -> tuple[int, int]:
    """`(numerator, denominator)` of a cost string in lowest terms, as
    `Fraction(value)` reads it.  "p", "p/q" and "p.f" with every part made
    of decimal digits are split with `int`, without `Fraction`'s regular
    expression; other spellings (signs, spaces, underscores, exponents,
    empty parts) go through `Fraction`.  Each part goes through `int` as
    `Fraction` parses it, so a too-long part (ValueError) or a zero
    denominator (ZeroDivisionError) fails as it does there; so does a
    numerator or denominator with more digits than `int` reads."""
    num, slash, den = value.partition("/")
    if slash:
        if not (num.isdecimal() and den.isdecimal()):
            return _fraction(value)
        n, d = int(num), int(den)
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
    else:
        whole, dot, frac = value.partition(".")
        if not whole.isdecimal() or (dot and not frac.isdecimal()):
            return _fraction(value)
        n, d = int(whole), 10 ** len(frac)
        if frac:
            n = n * d + int(frac)
    g = gcd(n, d)
    # neither part has more digits than the string, and no limit is below
    # 640 (`sys.int_info.str_digits_check_threshold`); a whole part and a
    # fraction part, each in the limit, can make a numerator past it
    if len(value) <= 640:
        return n // g, d // g
    return _in_limit(n // g, d // g)


def parse_cost(value) -> int | Fraction:
    """Convert an int, a decimal string such as "2.5", or a fraction string
    such as "5/2" to an exact rational: an `int` when the value is
    integral ("14/2", "7.0"), else a `Fraction`.  Floats are rejected:
    binary floats do not round-trip exactly."""
    # strings first: a file's costs are mostly strings, and the isinstance
    # test against Fraction's abstract base class is slow
    if isinstance(value, str):
        try:
            n, d = _ratio(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a cost: {value!r}") from exc
        return n if d == 1 else Fraction(n, d)
    if isinstance(value, bool):
        raise InputError(f"not a cost: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _exact(value)
    raise InputError(f"not a cost: {value!r} (floats are not accepted)")


def parse_ratios(*columns) -> dict | None:
    """`{value: (numerator, denominator)}` in lowest terms for every
    distinct JSON cost in `columns`, each string parsed once as
    `parse_cost` reads it (an empty dict when every cost is an int); None
    if a value is not an int or a string or does not parse."""
    # the type of every value, not of a set of the values: {1, True} keeps
    # only 1, and parse_cost must see True to reject it
    types = set().union(*(map(type, col) for col in columns))
    if not types <= {int, str}:
        return None
    if str not in types:
        return {}
    # ints and strings never compare equal
    try:
        return {
            c: (c, 1) if type(c) is int else _ratio(c)
            for c in set().union(*columns)
        }
    except (ValueError, ZeroDivisionError):
        return None


class Metric:
    """One exact cost per arc, held as its integer image: arc `e` costs
    `ints[e] / scale`, `scale` the LCM of the costs' reduced denominators
    (1 when every cost is integral).  Indexing and iteration read the
    exact costs, each made when it is read (`value`); the package's own
    loops read `ints`.  A metric equals a tuple or list of the same costs.
    A sweep's potentials are a metric too, on its weights' scale (which
    need not be their own LCM), with `INF` kept in `ints`.

    Costs that are not exact rationals (floats, built in code) are kept
    as given in `ints` with `scale` None: they read back as given and can
    be checked for sign, but have no integer image, and the sweep
    (`dijkstra.interdicted_distances`) rejects them."""

    __slots__ = ("ints", "scale")

    def __init__(self, ints: tuple, scale: int | None):
        self.ints, self.scale = ints, scale

    @classmethod
    def of(cls, costs) -> "Metric":
        """`costs` (ints and Fractions) scaled by the LCM of their
        denominators, each image an `int`; a Metric and all-`int` costs come
        back as they are, other costs (floats) as given, with scale None."""
        if type(costs) is cls:
            return costs
        if set(map(type, costs)) <= {int}:
            return cls(tuple(costs), 1)
        try:
            scale = lcm(*{c.denominator for c in costs})
        except AttributeError:
            return cls(tuple(costs), None)
        # built from a list, not a generator: tuple(generator) regrows its
        # buffer step by step, which left 100k-arc runs ~20 MB higher in RSS
        ints = [c.numerator * (scale // c.denominator) for c in costs]
        return cls(tuple(ints), scale)

    @classmethod
    def from_ratios(cls, values, ratio: dict) -> "Metric":
        """The metric of JSON costs `values`, split by `ratio` (see
        `parse_ratios`), scaled by the LCM of their denominators."""
        if not ratio:  # ints only
            return cls(tuple(values), 1)
        if len(values) > 2 * len(ratio):
            # costs repeat: arcs of equal cost share one int, made once
            split = {v: ratio[v] for v in set(values)}
            scale = lcm(*{d for _, d in split.values()})
            image = {v: n * (scale // d) for v, (n, d) in split.items()}
            return cls(tuple(list(map(image.__getitem__, values))), scale)
        # mostly distinct costs: one pass per arc, no table of images
        split = list(map(ratio.__getitem__, values))
        scale = lcm(*{d for _, d in split})
        return cls(tuple([n * (scale // d) for n, d in split]), scale)

    @classmethod
    def reduced(cls, ints, scale: int | None) -> "Metric":
        """The metric of costs `ints[e] / scale`, with any common factor of
        `scale` and every int taken out, so `scale` is the LCM again."""
        if scale is not None and scale > 1:
            g = gcd(scale, *ints)
            if g > 1:
                ints, scale = [c // g for c in ints], scale // g
        return cls(tuple(ints), scale)

    def value(self, v):
        """The exact cost whose image is `v` (a sum of `ints`): an `int`
        when integral, else a `Fraction`; `INF` stays `INF`."""
        s = self.scale
        if s == 1 or s is None or v == INF:
            return v
        q, r = divmod(v, s)
        return q if r == 0 else Fraction(v, s)

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, e):
        if type(e) is slice:
            return tuple(map(self.value, self.ints[e]))
        return self.value(self.ints[e])

    def __iter__(self):
        if self.scale == 1 or self.scale is None:
            return iter(self.ints)
        return map(self.value, self.ints)

    def __eq__(self, other):
        if type(other) is Metric and self.scale == other.scale:
            return self.ints == other.ints
        if isinstance(other, (tuple, list, Metric)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, Metric)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Metric({tuple(self)!r})"


# no digit limit is below 640 (`sys.int_info.str_digits_check_threshold`),
# and an int of at most 3 * 640 bits has fewer than 640 digits
_SHORT_BITS = 3 * 640


def cost_to_json(c: Cost):
    """Render a cost for JSON output: ints as ints, other rationals as
    "p/q" strings, infinity as "inf".  A cost with more digits than `str`
    writes, such as a sum of costs each within the limit, is an
    InputError."""
    if type(c) is int and c.bit_length() <= _SHORT_BITS:
        return c
    # a Fraction is never INF: testing its type first spares it a
    # comparison with a float
    if type(c) is not Fraction:
        if c == INF:
            return "inf"
        c = Fraction(c)
    n, d = c.numerator, c.denominator
    if n.bit_length() > _SHORT_BITS or d.bit_length() > _SHORT_BITS:
        try:
            _in_limit(n, d)
        except ValueError as exc:
            raise InputError(f"cannot write a cost of {exc}") from exc
    return n if d == 1 else f"{n}/{d}"
