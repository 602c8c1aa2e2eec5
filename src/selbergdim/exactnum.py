"""Exact rational arithmetic and the combinatorial primitives built on it.

The package computes on plain ints inside and takes and returns
:class:`fractions.Fraction` values at its API edge: arbitrary precision,
always reduced to lowest terms with a positive denominator, so equality is
structural. No floating point exists anywhere.

On top of that this module provides the rising factorial (with its
plain-int kernel ``scaled_rising``, which the identity checks in
:mod:`selbergdim.hyper` use directly), ``_scale``, the one place that puts
rationals, each read through ``as_fraction``, over a common denominator L as
plain ints (the 3F2 kernel, the public identity checks and the resonance
tests in :mod:`selbergdim.resonance` work on those ints), binomial
coefficients with the vanishing convention for out-of-range arguments, a
direct-summation checker for the hockey-stick identity, and the strict
``p/q`` text form used for rationals in all CLI and JSON output.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "is_integer",
    "pochhammer",
    "binom",
    "hockey_stick_check",
]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# The one text for a value past the int-to-str digit limit, filled with the limit.
_TOO_MANY_DIGITS = ("a value has more digits than the interpreter's int-to-str limit ({}); "
                    "PYTHONINTMAXSTRDIGITS=0 lifts it")


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit, 0 when it is off.

    Builds before 3.10.7 have neither the limit nor the function.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_rational(text: str) -> Fraction:
    """Parse the strict text form ``"p"`` or ``"p/q"`` into a Fraction.

    Only an optional sign, decimal digits, and at most one ``/`` are
    accepted; in particular decimal points, exponents and whitespace are
    rejected so that the text form stays bit-exact.

    Raises:
        ValueError: on malformed input, a zero denominator, or a part with
            more digits than the int-to-str limit (``_TOO_MANY_DIGITS``).
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"invalid rational literal {text!r}: expected 'p' or 'p/q'")
    num_part, _, den_part = text.partition("/")
    try:
        num, den = int(num_part), int(den_part or 1)
    except ValueError:  # the literal matched, so this is the digit limit
        raise ValueError(_TOO_MANY_DIGITS.format(_digit_limit())) from None
    if den == 0:
        raise ValueError(f"invalid rational literal {text!r}: denominator is zero")
    return Fraction(num, den)


def format_rational(q: Fraction | int) -> str:
    """Render a rational as ``p/q``, omitting ``/q`` when the denominator is 1.

    That is ``str`` of the int, or of its Fraction, which leaves out ``/1``;
    the record renderers write I_hyp by ``str`` on that ground.

    >>> format_rational(Fraction(-13, 12))
    '-13/12'
    >>> format_rational(Fraction(7, 1))
    '7'

    Raises:
        TypeError: ``q`` is a float, as for :func:`as_fraction`.
    """
    return str(q if type(q) is int else as_fraction(q))


def is_integer(q: Fraction | int) -> bool:
    """True iff the (reduced) rational has denominator 1; a float raises TypeError."""
    return as_fraction(q).denominator == 1


def as_fraction(value) -> Fraction:
    """``value`` as a Fraction; a value whose type is exactly Fraction is returned as is.

    Every public function that takes a rational reads it through here. A
    ``str`` is read by :func:`parse_rational`, in the strict ``p/q`` form
    only, not by ``Fraction``, which would take ``' 1.5e2 '`` as 150.

    Raises:
        TypeError: ``value`` is a float. Its binary value is seldom the number
            it was written as (0.1 is 3602879701896397/2^55), so it is refused
            rather than converted.
        ValueError: ``value`` is a ``str`` that :func:`parse_rational` refuses.
    """
    # Fraction(f) builds a new object through the numbers ABCs even when f
    # already is a Fraction; skip that for the common case.
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational (int or Fraction), got the float {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def _scale(*values: Fraction | int) -> tuple[int, ...]:
    """(L, v1 L, v2 L, ...): L > 0 the lcm of the denominators, all plain ints.

    Each value is read through :func:`as_fraction`, so a float raises TypeError.
    """
    values = tuple(map(as_fraction, values))
    L = math.lcm(*(v.denominator for v in values))
    return (L, *(v.numerator * (L // v.denominator) for v in values))


def scaled_rising(p: int, q: int, k: int) -> int:
    """``q^k (p/q)_k = p (p+q) ... (p+(k-1)q)`` on plain ints; 1 for k = 0.

    ``p/q`` need not be reduced. Since ``q != 0``, the product vanishes
    exactly when the rational rising factorial does.
    """
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    return math.prod(range(p, p + k * q, q))


def pochhammer(a: Fraction | int, k: int) -> Fraction:
    """Rising factorial ``a (a+1) ... (a+k-1)``; the empty product (k=0) is 1.

    Exact over rationals, total for every k >= 0. Once a factor hits zero
    the value is zero, which is what makes terminating hypergeometric sums
    finite. With ``a = p/q`` the product is taken on ints by
    :func:`scaled_rising` and divided by ``q^k`` once, so only one Fraction
    (one gcd) is built however large ``k`` is.

    Raises:
        ValueError: ``k < 0``.
    """
    a = as_fraction(a)
    q = a.denominator
    return Fraction(scaled_rising(a.numerator, q, k), q**k)


def binom(r: int, s: int) -> int:
    """Binomial coefficient for nonnegative integers, with binom(r, s) = 0 for s > r."""
    if r < 0 or s < 0:
        raise ValueError(f"binom arguments must be nonnegative, got ({r}, {s})")
    return math.comb(r, s)


def hockey_stick_check(r: int, s: int) -> bool:
    """Check the hockey-stick identity sum_{t=s}^{r-1} C(t, s) == C(r, s+1).

    The left side is evaluated by direct summation (its first term is
    C(s, s) = 1), independently of any closed form, so this doubles as a
    self-test of ``binom``. Requires 0 <= s < r.
    """
    if not 0 <= s < r:
        raise ValueError(f"hockey_stick_check requires 0 <= s < r, got (r={r}, s={s})")
    lhs = sum(binom(t, s) for t in range(s, r))
    return lhs == binom(r, s + 1)
