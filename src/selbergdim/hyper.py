"""Terminating 3F2 series and the classical identities used to cross-check them.

A generalized hypergeometric series

    3F2(a1, a2, a3; b1, b2; x) = sum_k  (a1)_k (a2)_k (a3)_k
                                        ------------------- x^k
                                         (b1)_k (b2)_k k!

terminates when some upper parameter is a non-positive integer: the
numerator product vanishes from that point on. Evaluation here is exact
and follows a *zero-numerator-first* rule: at each index k the numerator
product is tested before the denominator, so an index where both vanish
counts as termination, not as a pole. That convention is what makes the
series agree with the finite alternating sums it is used to repackage
(the factor that would blow up is already multiplied by zero).

The walk itself runs on plain ints. All five parameters are scaled to
integers over their common denominator L, so each step multiplies by an
integer ratio of numerator and denominator factors, and the partial sum is
carried as one integer numerator over one shared integer denominator. A
Fraction is built only once, from the final pair, so the loop performs no
gcd. The scaling multiplies each factor by a nonzero constant, so an
integer factor is zero exactly when the rational one is and the
zero-numerator-first rule is unchanged.

Everything downstream of the series is an identity checker:

* Pfaff-Saalschuetz: a terminating balanced 3F2 at x=1 equals a ratio of
  four Pochhammer symbols.
* A three-term contiguity relation between 3F2 values whose first two
  upper parameters are shifted by one.
* The Pochhammer identity a (a+1)_k (b)_k - b (a)_k (b+1)_k =
  (a-b) (a)_k (b)_k that the contiguity relation rests on.

The residual functions return exact values whose contract is "always
zero"; they exist so that a violation would be a loud, reproducible
counterexample rather than a silent assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import pochhammer

__all__ = [
    "HypParams3F2",
    "HyperEvalError",
    "NonTerminatingError",
    "PoleBeforeTerminationError",
    "ZeroDenominatorError",
    "eval_terminating_3f2",
    "pfaff_saalschutz_rhs",
    "pfaff_saalschutz_check",
    "contiguity_residual",
    "pochhammer_identity_residual",
]


class HyperEvalError(Exception):
    """Base class for series-evaluation failures (reported, never fatal)."""


class NonTerminatingError(HyperEvalError):
    """No upper parameter is a non-positive integer, so the sum is infinite."""


class PoleBeforeTerminationError(HyperEvalError):
    """A denominator Pochhammer vanished at an index with nonzero numerator.

    The series value is undefined there; ``k`` reports the offending index.
    """

    def __init__(self, k: int):
        super().__init__(f"denominator vanishes at term k={k} before the series terminates")
        self.k = k


class ZeroDenominatorError(HyperEvalError):
    """A closed-form denominator Pochhammer vanished."""


@dataclass(frozen=True)
class HypParams3F2:
    """Parameters of a 3F2 series: three upper, two lower, one argument.

    Values are coerced to Fraction on construction (values that already
    are exactly Fraction are kept as they are); instances are immutable and
    safe to share. Termination is a property of ``upper`` and is checked at
    evaluation time, not here.
    """

    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]
    argument: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if len(self.upper) != 3:
            raise ValueError(f"expected exactly 3 upper parameters, got {len(self.upper)}")
        if len(self.lower) != 2:
            raise ValueError(f"expected exactly 2 lower parameters, got {len(self.lower)}")
        object.__setattr__(self, "upper", tuple(map(_as_fraction, self.upper)))
        object.__setattr__(self, "lower", tuple(map(_as_fraction, self.lower)))
        object.__setattr__(self, "argument", _as_fraction(self.argument))


def _as_fraction(value) -> Fraction:
    # Fraction(f) builds a new object through the numbers ABCs even when f
    # already is a Fraction; skip that for the common case.
    return value if type(value) is Fraction else Fraction(value)


def _eval_terms(params: HypParams3F2) -> tuple[Fraction, int]:
    """Evaluate the series; return (value, number of terms actually summed).

    The walk runs on plain ints. With L the lcm of the five parameter
    denominators and x = u/v, every factor a + k is (p + kL)/L for an
    integer p = aL, and likewise b + k = (q + kL)/L. The ratio of term k+1
    to term k is then

        (p1+kL)(p2+kL)(p3+kL) u  /  ((q1+kL)(q2+kL)(k+1) L v),

    so the partial sum is kept as ``total / den`` over one shared integer
    denominator: each step multiplies ``total`` and ``den`` by the same
    step factor and adds the new term's numerator. The only Fraction is
    built once, from the final pair.

    The zero tests see exactly what the rational loop saw. Since L, u and v
    never enter them, (a)_{k+1} vanishes iff (p1+kL)(p2+kL)(p3+kL) does,
    and (b1)_{k+1} (b2)_{k+1} (k+1)! vanishes iff (q1+kL)(q2+kL)(k+1) does;
    the numerator factor is tested first, so an index where both vanish is
    still termination. With x = 0 the terms after the first are zero, but
    the walk, the term count and any pole index are unchanged.
    """
    if not any(a.denominator == 1 and a.numerator <= 0 for a in params.upper):
        raise NonTerminatingError(
            "no upper parameter is a non-positive integer; series does not terminate"
        )
    a1, a2, a3 = params.upper
    b1, b2 = params.lower
    x = params.argument
    L = math.lcm(a1.denominator, a2.denominator, a3.denominator, b1.denominator, b2.denominator)
    p1, p2, p3 = (a.numerator * (L // a.denominator) for a in (a1, a2, a3))
    q1, q2 = (b.numerator * (L // b.denominator) for b in (b1, b2))
    u = x.numerator
    lv = L * x.denominator

    # Term 0 (= 1) is summed. At the top of each pass k is the index of the
    # next term and p*, q* hold p + (k-1)L, q + (k-1)L; term / den is the
    # last term summed and total / den the partial sum.
    total = den = term = 1
    k = 1
    while True:
        step_num = p1 * p2 * p3
        if step_num == 0:
            # Termination: every later numerator stays zero, including any
            # index where a denominator factor would also vanish.
            return Fraction(total, den), k
        step_den = q1 * q2 * k
        if step_den == 0:
            raise PoleBeforeTerminationError(k)
        step_den *= lv
        term *= step_num * u
        total = total * step_den + term
        den *= step_den
        p1 += L
        p2 += L
        p3 += L
        q1 += L
        q2 += L
        k += 1


def eval_terminating_3f2(params: HypParams3F2) -> Fraction:
    """Exact value of a terminating 3F2.

    Terms are summed for k = 0, 1, ... and summation stops at the first k
    where the numerator product vanishes; at most 1 + min(-a) terms are
    evaluated, the minimum over non-positive-integer upper parameters a.

    Raises:
        NonTerminatingError: no upper parameter is a non-positive integer.
        PoleBeforeTerminationError: a denominator Pochhammer vanishes at an
            index where the numerator product is still nonzero.
    """
    value, _ = _eval_terms(params)
    return value


def pfaff_saalschutz_rhs(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> Fraction:
    """Closed-form side of the Pfaff-Saalschuetz identity.

        (c-a)_j (c-b)_j / ( (c)_j (c-a-b)_j )

    Raises:
        ZeroDenominatorError: (c)_j or (c-a-b)_j vanishes.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    den_c = pochhammer(c, j)
    den_cab = pochhammer(c - a - b, j)
    if den_c == 0 or den_cab == 0:
        raise ZeroDenominatorError(
            f"(c)_{j} or (c-a-b)_{j} vanishes for a={a}, b={b}, c={c}"
        )
    return pochhammer(c - a, j) * pochhammer(c - b, j) / (den_c * den_cab)


def _pfaff_lhs_params(a: Fraction, b: Fraction, c: Fraction, j: int) -> HypParams3F2:
    # Balanced terminating series: upper (a, b, -j), lower (c, 1+a+b-c-j), x=1.
    return HypParams3F2(upper=(a, b, Fraction(-j)), lower=(c, 1 + a + b - c - j))


def pfaff_saalschutz_check(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> bool:
    """True iff both sides of the Pfaff-Saalschuetz identity agree exactly.

    The left side is the terminating series 3F2(a, b, -j; c, 1+a+b-c-j; 1)
    evaluated term by term; the right side is :func:`pfaff_saalschutz_rhs`.
    Evaluation errors on either side propagate.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lhs = eval_terminating_3f2(_pfaff_lhs_params(a, b, c, j))
    return lhs == pfaff_saalschutz_rhs(a, b, c, j)


def contiguity_residual(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> Fraction:
    """Residual of the three-term contiguity relation; zero for all valid inputs.

    With F(u1, u2) = 3F2(u1, u2, -j; c, a+b-c+2-j; 1), returns

        (b - a) F(a, b) + a F(a+1, b) - b F(a, b+1).

    All three series must be defined: an input whose shared lower row
    produces a pole before termination raises, it is not interpreted as a
    limit.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    lower = (c, a + b - c + 2 - j)
    f_ab = eval_terminating_3f2(HypParams3F2((a, b, Fraction(-j)), lower))
    f_a1b = eval_terminating_3f2(HypParams3F2((a + 1, b, Fraction(-j)), lower))
    f_ab1 = eval_terminating_3f2(HypParams3F2((a, b + 1, Fraction(-j)), lower))
    return (b - a) * f_ab + a * f_a1b - b * f_ab1


def pochhammer_identity_residual(
    a: Fraction | int,
    b: Fraction | int,
    k: int,
) -> Fraction:
    """a (a+1)_k (b)_k - b (a)_k (b+1)_k - (a-b) (a)_k (b)_k; always zero."""
    a, b = Fraction(a), Fraction(b)
    return (
        a * pochhammer(a + 1, k) * pochhammer(b, k)
        - b * pochhammer(a, k) * pochhammer(b + 1, k)
        - (a - b) * pochhammer(a, k) * pochhammer(b, k)
    )
