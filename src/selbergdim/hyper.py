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
carried as one integer numerator over one shared integer denominator. The
kernel returns that pair unreduced, so the loop performs no gcd; a caller
that needs a value builds the one Fraction from it. The scaling multiplies
each factor by a nonzero constant, so an integer factor is zero exactly
when the rational one is and the zero-numerator-first rule is unchanged. The kernel,
:func:`_eval_scaled_3f2`, takes the scaled integers themselves; L comes
from :func:`selbergdim.exactnum._scale`, the one place that computes a
common denominator: the lcm of the denominators, with every value as an
int over it.

Everything downstream of the series is an identity checker:

* Pfaff-Saalschuetz: a terminating balanced 3F2 at x=1 equals a ratio of
  four Pochhammer symbols.
* A three-term contiguity relation between 3F2 values whose first two
  upper parameters are shifted by one.
* The Pochhammer identity a (a+1)_k (b)_k - b (a)_k (b+1)_k =
  (a-b) (a)_k (b)_k that the contiguity relation rests on.

The identity checks run on plain ints as well. Each has a scaled form
(:func:`_pfaff_scaled`, :func:`_contiguity_scaled`,
:func:`_pochhammer_scaled`) that takes its rational inputs as ints over one
common denominator L, so every series is a direct kernel call and every
Pochhammer symbol is an int rising product from
:func:`selbergdim.exactnum.scaled_rising` over a power of L. The
Pfaff-Saalschuetz check cross-multiplies the series' pair with the closed
form's unreduced (num, den) pair, and a residual is returned as one
unreduced (num, den) pair, zero exactly when num is. The public checkers
are thin wrappers that scale their inputs once with :func:`_scale` and
build a Fraction only where they return one; the seeded suites call the
scaled forms directly with draws that are already ints over L.
``HypParams3F2`` and :func:`eval_terminating_3f2` are the public front end
for callers outside the package.

The residual functions return exact values whose contract is "always
zero"; they exist so that a violation would be a loud, reproducible
counterexample rather than a silent assumption.
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
) -> tuple[int, int, int]:
    """Sum 3F2(p1/L, p2/L, p3/L; q1/L, q2/L; u/v); return (num, den, terms summed).

    The series kernel, on plain ints: every parameter is an integer over the
    common denominator L > 0 and the argument is u/v with v > 0. It is
    internal and checks neither; its callers guarantee both. The
    ``HypParams3F2`` front end (v the argument's denominator) and the
    identity checks (u = v = 1) take L from :func:`_scale`;
    ``dims.dim_I_hyp``, whose parameters are halves of ints, passes L = 2
    and u = v = 1.

    Each factor a + k is then (p + kL)/L, and b + k is (q + kL)/L, so the
    ratio of term k+1 to term k is

        (p1+kL)(p2+kL)(p3+kL) u  /  ((q1+kL)(q2+kL)(k+1) L v).

    The partial sum is kept as ``total / den`` over one shared integer
    denominator: each step multiplies ``total`` and ``den`` by the same
    step factor and adds the new term's numerator. The final pair is
    returned as it is: not reduced, and ``den`` nonzero but possibly
    negative.

    The zero tests see exactly what a rational loop would. Since L, u and v
    never enter them, (a)_{k+1} vanishes iff (p1+kL)(p2+kL)(p3+kL) does,
    and (b1)_{k+1} (b2)_{k+1} (k+1)! vanishes iff (q1+kL)(q2+kL)(k+1) does;
    the numerator factor is tested first, so an index where both vanish is
    termination. With x = 0 the terms after the first are zero, but the
    walk, the term count and any pole index are unchanged. Any common
    multiple of the denominators serves as L: the zero tests, the pole
    index and the reduced value do not depend on which one.
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


def _eval_terms(params: HypParams3F2) -> tuple[Fraction, int]:
    """Evaluate the series; return (value, number of terms actually summed).

    Scales the five parameters with :func:`_scale` and hands them to
    :func:`_eval_scaled_3f2`, the one kernel, and builds the one Fraction
    from the pair it returns.
    """
    L, p1, p2, p3, q1, q2 = _scale(*params.upper, *params.lower)
    x = params.argument
    num, den, terms = _eval_scaled_3f2(p1, p2, p3, q1, q2, L, x.numerator, x.denominator)
    return Fraction(num, den), terms


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


def _pfaff_rhs_pair(L: int, A: int, B: int, C: int, j: int) -> tuple[int, int]:
    """Unreduced (num, den) of the Pfaff-Saalschuetz closed form, den != 0.

    With a, b, c = A/L, B/L, C/L the four parameters c, c-a-b, c-a and c-b
    are C/L, (C-A-B)/L, (C-A)/L and (C-B)/L, so each (x/L)_j is an int
    rising product over L^j and the L^j cancel in the ratio. Both
    denominator products are tested for zero as ints; L^j != 0, so either
    vanishes exactly when its Pochhammer symbol does. Only the error
    message builds Fractions: a, b and c, reduced.
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

    The four rising products are taken on ints and one Fraction is built.

    Raises:
        ZeroDenominatorError: (c)_j or (c-a-b)_j vanishes.
    """
    return Fraction(*_pfaff_rhs_pair(*_scale(as_fraction(a), as_fraction(b), as_fraction(c)), j))


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
    return _pfaff_scaled(*_scale(as_fraction(a), as_fraction(b), as_fraction(c)), _order(j))


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
    limit. The combination is taken on ints over one denominator and one
    Fraction is built.
    """
    return Fraction(
        *_contiguity_scaled(*_scale(as_fraction(a), as_fraction(b), as_fraction(c)), _order(j))
    )


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
    """a (a+1)_k (b)_k - b (a)_k (b+1)_k - (a-b) (a)_k (b)_k; always zero.

    The residual is taken on ints over a power of the common denominator
    of a and b, and one Fraction is built from it.
    """
    return Fraction(*_pochhammer_scaled(*_scale(as_fraction(a), as_fraction(b)), k))
