"""Exact cost arithmetic.

Integral costs are plain `int`, from the file on and in every game the
package builds; only truly fractional costs are `fractions.Fraction`.
Every sweep runs on its weights' integer image (`integer_image`: every
cost times the LCM of the metric's denominators) and divides back once
(`divide_back`), so sweeps compare and add ints.  The only non-rational
value ever used is `INF`, which absorbs addition and dominates comparison
exactly as IEEE infinity does.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import InputError

Cost = Union[int, Fraction, float]

INF: float = float("inf")


def is_finite(c: Cost) -> bool:
    return c != INF


def _exact(f: Fraction) -> int | Fraction:
    return f.numerator if f.denominator == 1 else f


def _parse_digits(value: str) -> int | Fraction | None:
    """`_exact(Fraction(value))` for "p", "p/q" and "p.f" with every part
    made of decimal digits, without `Fraction`'s regular expression; None
    for any other spelling (signs, spaces, underscores, exponents, empty
    parts).  Each part goes through `int` as `Fraction` parses it, so a
    too-long part or a zero denominator raises the same error."""
    num, slash, den = value.partition("/")
    if slash:
        if not (num.isdecimal() and den.isdecimal()):
            return None
        n, d = int(num), int(den)
    else:
        whole, dot, frac = value.partition(".")
        if not whole.isdecimal() or (dot and not frac.isdecimal()):
            return None
        n, d = int(whole), 10 ** len(frac)
        if frac:
            n = n * d + int(frac)
    if n % d == 0:
        return n // d
    return Fraction(n, d)


def parse_cost(value) -> int | Fraction:
    """Convert an int, a decimal string such as "2.5", or a fraction string
    such as "5/2" to an exact rational: an `int` when the value is
    integral ("14/2", "7.0"), else a `Fraction`.  Floats are rejected:
    binary floats do not round-trip exactly."""
    # strings first: a file's costs are mostly strings, and the isinstance
    # test against Fraction's abstract base class is slow
    if isinstance(value, str):
        try:
            cost = _parse_digits(value)
            return _exact(Fraction(value)) if cost is None else cost
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a cost: {value!r}") from exc
    if isinstance(value, bool):
        raise InputError(f"not a cost: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _exact(value)
    raise InputError(f"not a cost: {value!r} (floats are not accepted)")


def integer_image(weights: Sequence) -> tuple[int, tuple[int, ...]]:
    """`(scale, ints)`: `scale` is the LCM of the denominators of the
    exact `weights`, and `ints[e] == weights[e] * scale`, each a plain
    `int` (integral Fractions too); all-`int` weights come back as they
    are, with scale 1.  Scaling a metric by a positive constant keeps
    every comparison and tie between its sums."""
    if set(map(type, weights)) <= {int}:
        return 1, tuple(weights)
    try:
        scale = lcm(*{c.denominator for c in weights})
    except AttributeError:
        raise InputError("costs must be exact rationals or ints") from None
    # built from a list, not a generator: tuple(generator) regrows its
    # buffer step by step, which left 100k-arc runs ~20 MB higher in RSS
    return scale, tuple([c.numerator * (scale // c.denominator) for c in weights])


def divide_back(values: Sequence, scale: int) -> Sequence:
    """`values` of an integer image divided by its `scale`, integral
    results as `int`; `INF` stays `INF`."""
    if scale == 1:
        return values
    return tuple([_exact(Fraction(v, scale)) if v != INF else v for v in values])


def cost_to_json(c: Cost):
    """Render a cost for JSON output: ints as ints, other rationals as
    "p/q" strings, infinity as "inf"."""
    if type(c) is int:
        return c
    # a Fraction is never INF: testing its type first spares it a
    # comparison with a float
    if type(c) is not Fraction:
        if c == INF:
            return "inf"
        c = Fraction(c)
    if c.denominator == 1:
        return c.numerator
    return f"{c.numerator}/{c.denominator}"
