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
zero-numerator-first rule is unchanged. The kernel,
:func:`_eval_scaled_3f2`, takes the scaled integers themselves; a
``HypParams3F2`` is scaled by a thin front end, and a caller whose
parameters are already integers over a known denominator (the image
series of ``dims``, over 2) calls the kernel directly.

Everything downstream of the series is an identity checker:

* Pfaff-Saalschuetz: a terminating balanced 3F2 at x=1 equals a ratio of
  four Pochhammer symbols.
* A three-term contiguity relation between 3F2 values whose first two
  upper parameters are shifted by one.
* The Pochhammer identity a (a+1)_k (b)_k - b (a)_k (b+1)_k =
  (a-b) (a)_k (b)_k that the contiguity relation rests on.

The identity checks run on plain ints as well. With the parameters over
one integer denominator, every Pochhammer symbol is an int rising product
from :func:`selbergdim.exactnum.scaled_rising` over a power of that
denominator, so a closed form or a residual is one integer combination
with one Fraction built from it. The Pfaff-Saalschuetz check compares the
series value with the closed form's unreduced (num, den) pair by
cross-multiplication, and the contiguity residual combines the three
series values over the product of their denominators. The series
themselves still go through :func:`eval_terminating_3f2`.

The residual functions return exact values whose contract is "always
zero"; they exist so that a violation would be a loud, reproducible
counterexample rather than a silent assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import as_fraction, scaled_rising

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
        object.__setattr__(self, "upper", tuple(map(as_fraction, self.upper)))
        object.__setattr__(self, "lower", tuple(map(as_fraction, self.lower)))
        object.__setattr__(self, "argument", as_fraction(self.argument))


def _eval_scaled_3f2(
    p1: int, p2: int, p3: int, q1: int, q2: int, L: int, u: int, v: int
) -> tuple[Fraction, int]:
    """Sum 3F2(p1/L, p2/L, p3/L; q1/L, q2/L; u/v); return (value, terms summed).

    The series kernel, on plain ints: every parameter is an integer over the
    common denominator L > 0 and the argument is u/v with v > 0. It is
    internal and checks neither; its callers guarantee both: the
    ``HypParams3F2`` front end (L the lcm of the denominators, v the
    argument's denominator) and ``dims.dim_I_hyp`` (L = 2, u = v = 1).
    Each factor a + k is then (p + kL)/L, and b + k is (q + kL)/L, so the ratio of term
    k+1 to term k is

        (p1+kL)(p2+kL)(p3+kL) u  /  ((q1+kL)(q2+kL)(k+1) L v).

    The partial sum is kept as ``total / den`` over one shared integer
    denominator: each step multiplies ``total`` and ``den`` by the same
    step factor and adds the new term's numerator. The only Fraction is
    built once, from the final pair.

    The zero tests see exactly what a rational loop would. Since L, u and v
    never enter them, (a)_{k+1} vanishes iff (p1+kL)(p2+kL)(p3+kL) does,
    and (b1)_{k+1} (b2)_{k+1} (k+1)! vanishes iff (q1+kL)(q2+kL)(k+1) does;
    the numerator factor is tested first, so an index where both vanish is
    termination. With x = 0 the terms after the first are zero, but the
    walk, the term count and any pole index are unchanged. Any common
    multiple of the denominators serves as L: the zero tests, the pole
    index and the reduced value do not depend on which one.
    """
    if not any(p <= 0 and p % L == 0 for p in (p1, p2, p3)):
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


def _eval_terms(params: HypParams3F2) -> tuple[Fraction, int]:
    """Evaluate the series; return (value, number of terms actually summed).

    Scales the five parameters to integers over L, the lcm of their
    denominators, and hands them to :func:`_eval_scaled_3f2`, the one kernel.
    """
    a1, a2, a3 = params.upper
    b1, b2 = params.lower
    x = params.argument
    L = math.lcm(a1.denominator, a2.denominator, a3.denominator, b1.denominator, b2.denominator)
    p1, p2, p3, q1, q2 = (a.numerator * (L // a.denominator) for a in (a1, a2, a3, b1, b2))
    return _eval_scaled_3f2(p1, p2, p3, q1, q2, L, x.numerator, x.denominator)


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


def _over_common_denominator(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int, int, int]:
    """(A, B, C, D) with a = A/D, b = B/D, c = C/D and D = qa qb qc > 0."""
    qa, qb, qc = a.denominator, b.denominator, c.denominator
    return a.numerator * qb * qc, b.numerator * qa * qc, c.numerator * qa * qb, qa * qb * qc


def _pfaff_rhs_pair(a: Fraction, b: Fraction, c: Fraction, j: int) -> tuple[int, int]:
    """Unreduced (num, den) of the Pfaff-Saalschuetz closed form, den != 0.

    Over the common denominator D the four parameters c, c-a-b, c-a and
    c-b are C/D, (C-A-B)/D, (C-A)/D and (C-B)/D, so each (x/D)_j is an
    int rising product over D^j and the D^j cancel in the ratio. Both
    denominator products are tested for zero as ints; D^j != 0, so either
    vanishes exactly when its Pochhammer symbol does.
    """
    A, B, C, D = _over_common_denominator(a, b, c)
    den = scaled_rising(C, D, j)
    den_cab = scaled_rising(C - A - B, D, j)
    if den == 0 or den_cab == 0:
        raise ZeroDenominatorError(
            f"(c)_{j} or (c-a-b)_{j} vanishes for a={a}, b={b}, c={c}"
        )
    return scaled_rising(C - A, D, j) * scaled_rising(C - B, D, j), den * den_cab


def pfaff_saalschutz_rhs(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> Fraction:
    """Closed-form side of the Pfaff-Saalschuetz identity.

        (c-a)_j (c-b)_j / ( (c)_j (c-a-b)_j )

    The four rising products are taken on ints and one Fraction is built.

    Raises:
        ZeroDenominatorError: (c)_j or (c-a-b)_j vanishes.
    """
    num, den = _pfaff_rhs_pair(as_fraction(a), as_fraction(b), as_fraction(c), j)
    return Fraction(num, den)


def _pfaff_lhs_params(a: Fraction, b: Fraction, c: Fraction, j: int) -> HypParams3F2:
    # Balanced terminating series: upper (a, b, -j), lower (c, 1+a+b-c-j), x=1,
    # with 1+a+b-c-j built as one Fraction over qa qb qc.
    A, B, C, D = _over_common_denominator(a, b, c)
    return HypParams3F2(upper=(a, b, Fraction(-j)), lower=(c, Fraction(D + A + B - C - j * D, D)))


def pfaff_saalschutz_check(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    j: int,
) -> bool:
    """True iff both sides of the Pfaff-Saalschuetz identity agree exactly.

    The left side is the terminating series 3F2(a, b, -j; c, 1+a+b-c-j; 1)
    evaluated term by term, first; the right side is the closed form of
    :func:`pfaff_saalschutz_rhs`, compared as an unreduced int pair by
    cross-multiplication. Evaluation errors on either side propagate.
    """
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    lhs = eval_terminating_3f2(_pfaff_lhs_params(a, b, c, j))
    rn, rd = _pfaff_rhs_pair(a, b, c, j)
    return lhs.numerator * rd == rn * lhs.denominator


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
    limit. With a = p/q, b = s/t and F values n_i/d_i, the combination is
    taken on ints over q t d1 d2 d3 and one Fraction is built.
    """
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    p, q = a.numerator, a.denominator
    s, t = b.numerator, b.denominator
    qc = c.denominator
    lower = (c, Fraction((p * t + s * q + (2 - j) * q * t) * qc - c.numerator * q * t, q * t * qc))
    minus_j = Fraction(-j)
    f1 = eval_terminating_3f2(HypParams3F2((a, b, minus_j), lower))
    f2 = eval_terminating_3f2(HypParams3F2((Fraction(p + q, q), b, minus_j), lower))
    f3 = eval_terminating_3f2(HypParams3F2((a, Fraction(s + t, t), minus_j), lower))
    n1, d1 = f1.numerator, f1.denominator
    n2, d2 = f2.numerator, f2.denominator
    n3, d3 = f3.numerator, f3.denominator
    num = (s * q - p * t) * n1 * d2 * d3 + p * t * n2 * d1 * d3 - s * q * n3 * d1 * d2
    return Fraction(num, q * t * d1 * d2 * d3)


def pochhammer_identity_residual(
    a: Fraction | int,
    b: Fraction | int,
    k: int,
) -> Fraction:
    """a (a+1)_k (b)_k - b (a)_k (b+1)_k - (a-b) (a)_k (b)_k; always zero.

    With a = p/q and b = s/t, the residual times (q t)^(k+1) is an int
    built from the rising products of :func:`scaled_rising`; one Fraction
    is built from it.
    """
    a, b = as_fraction(a), as_fraction(b)
    p, q = a.numerator, a.denominator
    s, t = b.numerator, b.denominator
    ra1 = scaled_rising(p + q, q, k)
    rb = scaled_rising(s, t, k)
    ra = scaled_rising(p, q, k)
    rb1 = scaled_rising(s + t, t, k)
    num = p * t * ra1 * rb - s * q * ra * rb1 - (p * t - s * q) * ra * rb
    return Fraction(num, (q * t) ** (k + 1))
