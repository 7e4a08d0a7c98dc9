"""Exact cost arithmetic.

Integral costs are plain `int`, from the file on; only truly fractional
costs are `fractions.Fraction`.  `solve` and `shortest_longest_distances`
work on each metric's integer image (`integer_image`: every cost times
the LCM of the metric's denominators) and divide back only on output, so
their sweeps compare and add ints.  The only non-rational value ever
used is `INF`, which absorbs addition and dominates comparison exactly as
IEEE infinity does.
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


def parse_cost(value) -> int | Fraction:
    """Convert an int, a decimal string such as "2.5", or a fraction string
    such as "5/2" to an exact rational: an `int` when the value is
    integral ("14/2", "7.0"), else a `Fraction`.  Floats are rejected:
    binary floats do not round-trip exactly."""
    # strings first: a file's costs are mostly strings, and the isinstance
    # test against Fraction's abstract base class is slow
    if isinstance(value, str):
        try:
            return _exact(Fraction(value))
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
    finite exact `weights`, and `ints[e] == weights[e] * scale`, each a
    plain `int`.  `parse_cost` and `InstanceGenerator` give integral costs
    as `int`, but games built in code may hold integral Fractions, which
    become ints here too.  Scaling a metric by a positive constant keeps
    every comparison and tie between its sums."""
    try:
        scale = lcm(*{c.denominator for c in weights})
    except AttributeError:
        raise InputError("costs must be exact rationals or ints") from None
    # built from a list, not a generator: tuple(generator) regrows its
    # buffer step by step, which left 100k-arc runs ~20 MB higher in RSS
    return scale, tuple([c.numerator * (scale // c.denominator) for c in weights])


def cost_to_json(c: Cost):
    """Render a cost for JSON output: ints as ints, other rationals as
    "p/q" strings, infinity as "inf"."""
    if type(c) is int:
        return c
    if c == INF:
        return "inf"
    f = Fraction(c)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"
