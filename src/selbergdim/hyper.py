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

One kernel, :func:`_eval_scaled_3f2`, sums every series on ints; its
docstring says how. Everything downstream of it is an identity checker:

* Pfaff-Saalschuetz: a terminating balanced 3F2 at x=1 equals a ratio of
  four Pochhammer symbols.
* A three-term contiguity relation between 3F2 values whose first two
  upper parameters are shifted by one.
* The Pochhammer identity a (a+1)_k (b)_k - b (a)_k (b+1)_k =
  (a-b) (a)_k (b)_k that the contiguity relation rests on.

Each check has a scaled form on ints over one common denominator L, which
:func:`selbergdim.exactnum._scale`, the one place that computes one, gives
the public checkers; the seeded suites call the scaled forms directly.
``HypParams3F2`` and :func:`eval_terminating_3f2` front the kernel publicly.

A residual's contract is "always zero". Inside it is an exact, unreduced
(num, den) pair, zero exactly when num is, so that a violation would be a
loud, reproducible counterexample rather than a silent assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import _scale, as_fraction, scaled_rising

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

    Values are coerced to Fraction on construction (an exact Fraction is
    kept as it is); instances are immutable and safe to share. Termination
    is checked at evaluation time, not here.
    """

    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]
    argument: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if len(self.upper) != 3:
            raise ValueError(f"expected exactly 3 upper parameters, got {len(self.upper)}")
        if len(self.lower) != 2:
            raise ValueError(f"expected exactly 2 lower parameters, got {len(self.lower)}")
        object.__setattr__(self, "upper", tuple(map(as_fraction, self.upper)))
        object.__setattr__(self, "lower", tuple(map(as_fraction, self.lower)))
        object.__setattr__(self, "argument", as_fraction(self.argument))


def _eval_scaled_3f2(
    p1: int, p2: int, p3: int, q1: int, q2: int, L: int, u: int, v: int
) -> tuple[int, int, int]:
    """Sum 3F2(p1/L, p2/L, p3/L; q1/L, q2/L; u/v); return (num, den, terms summed).

    The series kernel, on plain ints: every parameter is an int over a
    common denominator L > 0 and the argument is u/v with v > 0. It is
    internal and checks neither; its callers guarantee both. Each factor
    a + k is then (p + kL)/L, and b + k is (q + kL)/L, so the ratio of term
    k+1 to term k is

        (p1+kL)(p2+kL)(p3+kL) u  /  ((q1+kL)(q2+kL)(k+1) L v).

    The partial sum is kept as ``total / den``: each step multiplies both by
    the step's denominator and adds the new term's numerator. The pair is
    returned unreduced, ``den`` nonzero of either sign, so the loop performs
    no gcd; a caller that needs a value builds one Fraction.

    Scaling multiplies each factor by a nonzero constant, so the zero tests
    see exactly what a rational loop would: (a)_{k+1} vanishes iff
    (p1+kL)(p2+kL)(p3+kL) does, and (b1)_{k+1} (b2)_{k+1} (k+1)! iff
    (q1+kL)(q2+kL)(k+1) does. With x = 0 the terms after the first are
    zero, but the walk, the term count and any pole index are unchanged.
    Any common multiple of the denominators serves as L: the zero tests,
    the pole index and the reduced value do not depend on which one.
    """
    if not (
        p1 <= 0 and p1 % L == 0 or p2 <= 0 and p2 % L == 0 or p3 <= 0 and p3 % L == 0
    ):
        raise NonTerminatingError(
            "no upper parameter is a non-positive integer; series does not terminate"
        )
    lv = L * v
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
            return total, den, k
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
    L, p1, p2, p3, q1, q2 = _scale(*params.upper, *params.lower)
    x = params.argument
    return Fraction(*_eval_scaled_3f2(p1, p2, p3, q1, q2, L, x.numerator, x.denominator)[:2])


def _pfaff_rhs_pair(L: int, A: int, B: int, C: int, j: int) -> tuple[int, int]:
    """Unreduced (num, den) of the Pfaff-Saalschuetz closed form, den != 0.

    With a, b, c = A/L, B/L, C/L each of the four (x/L)_j is an int rising
    product over L^j, and the L^j cancel in the ratio; L^j != 0, so a
    denominator product is 0 exactly when its Pochhammer symbol is. Only the
    error message builds Fractions: a, b and c, reduced.
    """
    den = scaled_rising(C, L, j)
    den_cab = scaled_rising(C - A - B, L, j)
    if den == 0 or den_cab == 0:
        a, b, c = Fraction(A, L), Fraction(B, L), Fraction(C, L)
        raise ZeroDenominatorError(
            f"(c)_{j} or (c-a-b)_{j} vanishes for a={a}, b={b}, c={c}"
        )
    return scaled_rising(C - A, L, j) * scaled_rising(C - B, L, j), den * den_cab


def _order(j: int) -> int:
    """The order ``j`` of a public identity check, as given; a float raises TypeError.

    A float j would reach the series kernel as a float parameter, where
    -0.0 sums as 0 and 1e300 never ends.
    """
    if isinstance(j, float):
        raise TypeError(f"j must be an int, got the float {j!r}")
    return j


def _pfaff_scaled(L: int, A: int, B: int, C: int, j: int) -> bool:
    """:func:`pfaff_saalschutz_check` for a, b, c = A/L, B/L, C/L, on ints.

    The series is evaluated first, so its errors come before the closed
    form's; the two unreduced pairs are compared by cross-multiplication.
    """
    num, den, _ = _eval_scaled_3f2(A, B, -j * L, C, L + A + B - C - j * L, L, 1, 1)
    rn, rd = _pfaff_rhs_pair(L, A, B, C, j)
    return num * rd == rn * den


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
    return Fraction(*_pfaff_rhs_pair(*_scale(a, b, c), j))


def pfaff_saalschutz_check(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> bool:
    """True iff both sides of the Pfaff-Saalschuetz identity agree exactly.

    The left side is the terminating series 3F2(a, b, -j; c, 1+a+b-c-j; 1),
    evaluated first; the right side is :func:`pfaff_saalschutz_rhs`.
    Evaluation errors on either side propagate.
    """
    return _pfaff_scaled(*_scale(a, b, c), _order(j))


def _contiguity_scaled(L: int, A: int, B: int, C: int, j: int) -> tuple[int, int]:
    """:func:`contiguity_residual` for a, b, c = A/L, B/L, C/L, as (num, den).

    The three series are direct kernel calls with pairs n_i/d_i, and the
    combination is taken on ints over L d1 d2 d3, not reduced.
    """
    minus_j, lower = -j * L, A + B - C + (2 - j) * L
    n1, d1, _ = _eval_scaled_3f2(A, B, minus_j, C, lower, L, 1, 1)
    n2, d2, _ = _eval_scaled_3f2(A + L, B, minus_j, C, lower, L, 1, 1)
    n3, d3, _ = _eval_scaled_3f2(A, B + L, minus_j, C, lower, L, 1, 1)
    num = (B - A) * n1 * d2 * d3 + A * n2 * d1 * d3 - B * n3 * d1 * d2
    return num, L * d1 * d2 * d3


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
    return Fraction(*_contiguity_scaled(*_scale(a, b, c), _order(j)))


def _pochhammer_scaled(L: int, A: int, B: int, k: int) -> tuple[int, int]:
    """:func:`pochhammer_identity_residual` for a, b = A/L, B/L, as (num, den).

    The residual times L^(2k+1) is an int built from the rising products of
    :func:`scaled_rising`; the pair is not reduced.
    """
    ra1 = scaled_rising(A + L, L, k)
    rb = scaled_rising(B, L, k)
    ra = scaled_rising(A, L, k)
    rb1 = scaled_rising(B + L, L, k)
    num = A * ra1 * rb - B * ra * rb1 - (A - B) * ra * rb
    return num, L ** (2 * k + 1)


def pochhammer_identity_residual(
    a: Fraction | int,
    b: Fraction | int,
    k: int,
) -> Fraction:
    """a (a+1)_k (b)_k - b (a)_k (b+1)_k - (a-b) (a)_k (b)_k; always zero."""
    return Fraction(*_pochhammer_scaled(*_scale(a, b), k))
