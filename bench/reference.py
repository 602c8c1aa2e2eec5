"""Stdlib reference for everything the benchmark checks.

Nothing here imports ``selbergdim``: each expected value is rebuilt from the
documented formulas and formats, so a wrong answer from the package shows up
as a mismatch instead of being copied into the expectation.

* ``record``: D = C(n+m-2, m) with D(0, n) = 1 and D(m<0, n) = 0, and K, I as
  the alternating sums over s; every route of a record must equal them.
* ``classify``: the resonant set and the point / infinity / diagonal
  integrality tests, in the documented order.
* ``suite_counts``: the seeded suites redrawn from the documented LCG, with
  the zero-numerator-first 3F2 rule deciding which draws are skipped.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

CSV_COLUMNS = (
    "m", "n", "r", "D", "K_recursion", "K_reduction", "K_closed",
    "I_sum", "I_hyp", "I_subtract", "routes_agree", "in_validity_range",
)

SEEDED_SUITES = ("pfaff", "contiguity", "pochhammer")
DEFAULT_CASES = {"pfaff": 500, "contiguity": 200, "pochhammer": 200}


def fmt(q: Fraction | int) -> str:
    """The package's exact text form: ``p`` or ``p/q``."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _dim_d(m: int, n: int) -> int:
    if m < 0:
        return 0
    if m == 0:
        return 1
    return comb(n + m - 2, m)


def record(m: int, n: int, r: int) -> dict:
    """The JSON record ``dims``/``table`` must print for (m, n, r), n >= 2."""
    terms = [(-1) ** s * comb(r, s) * _dim_d(m - 2 * s, n) for s in range(0, m // 2 + 1)]
    d = _dim_d(m, n)
    kernel = -sum(terms[1:])
    image = sum(terms)
    return {
        "m": m, "n": n, "r": r, "D": d,
        "K_recursion": kernel, "K_reduction": kernel, "K_closed": kernel,
        "I_sum": image, "I_hyp": str(image), "I_subtract": image,
        "K": kernel, "I": image,
        "routes_agree": True,
        "in_validity_range": d >= 0 and 0 <= kernel <= d and image >= 0,
        "hyp_error": None,
    }


def csv_row(rec: dict) -> str:
    cells = []
    for col in CSV_COLUMNS:
        value = rec[col]
        cells.append(("true" if value else "false") if isinstance(value, bool) else str(value))
    return ",".join(cells)


def grid(m_range: tuple[int, int], n_range: tuple[int, int]) -> list[dict]:
    """Records of ``table --r-policy all`` in (m, n, r) order."""
    return [
        record(m, n, r)
        for m in range(m_range[0], m_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
        for r in range(0, n + 1)
    ]


def classify(m: int, g: Fraction, lambdas: list[Fraction]) -> dict:
    """The JSON document ``classify --format json`` must print for a configuration."""
    lam_inf = -sum(lambdas, Fraction(0)) - (m - 1) * g
    resonant = [j for j, lam in enumerate(lambdas, start=1) if (2 * lam + g).denominator == 1]

    def pairs(k: int) -> int:
        return k * (k - 1) // 2

    violations = []
    for k in [1] + list(range(3, m + 1)):
        for j, lam in enumerate(lambdas, start=1):
            value = k * lam + pairs(k) * g
            if value.denominator == 1:
                violations.append({"condition": "point", "j": j, "k": k, "value": fmt(value)})
    for k in range(1, m + 1):
        value = k * lam_inf + pairs(k) * g
        if value.denominator == 1:
            violations.append({"condition": "infinity", "j": None, "k": k, "value": fmt(value)})
    for k in range(2, m + 1):
        value = pairs(k) * g
        if value.denominator == 1:
            violations.append({"condition": "diagonal", "j": None, "k": k, "value": fmt(value)})
    valid = not violations
    return {
        "config": {"m": m, "g": fmt(g), "lambdas": [fmt(lam) for lam in lambdas]},
        "lambda_infinity": fmt(lam_inf),
        "resonant_indices": resonant,
        "r": len(resonant),
        "violations": violations,
        "assumption_valid": valid,
        "dimensions": record(m, len(lambdas), len(resonant)) if valid else None,
    }


# ---------------------------------------------------------------------------
# seeded suites

class _Lcg:
    def __init__(self, seed: int):
        self.state = seed % (1 << 64)

    def randint(self, lo: int, hi: int) -> int:
        self.state = (6364136223846793005 * self.state + 1442695040888963407) % (1 << 64)
        return lo + (self.state >> 33) % (hi - lo + 1)

    def rational(self) -> Fraction:
        num = self.randint(-8, 8)
        return Fraction(num, self.randint(1, 4))


def _rising(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _series(upper: tuple, lower: tuple) -> Fraction | None:
    """Terminating 3F2 at x = 1, or None on a pole before termination.

    Each term is built from rising factorials directly; at every index the
    numerator is tested first, so an index where both sides vanish ends
    the sum.
    """
    total = Fraction(0)
    k = 0
    while True:
        num = _rising(upper[0], k) * _rising(upper[1], k) * _rising(upper[2], k)
        if num == 0:
            return total
        den = _rising(lower[0], k) * _rising(lower[1], k) * _rising(Fraction(1), k)
        if den == 0:
            return None
        total += num / den
        k += 1


def _pfaff(rng: _Lcg) -> str:
    a, b, c = rng.rational(), rng.rational(), rng.rational()
    j = rng.randint(1, 8)
    lhs = _series((a, b, Fraction(-j)), (c, 1 + a + b - c - j))
    den = _rising(c, j) * _rising(c - a - b, j)
    if lhs is None or den == 0:
        return "skipped"
    return "passed" if lhs == _rising(c - a, j) * _rising(c - b, j) / den else "failed"


def _contiguity(rng: _Lcg) -> str:
    a, b, c = rng.rational(), rng.rational(), rng.rational()
    j = rng.randint(0, 10)
    lower = (c, a + b - c + 2 - j)
    values = [_series((u1, u2, Fraction(-j)), lower) for u1, u2 in ((a, b), (a + 1, b), (a, b + 1))]
    if None in values:
        return "skipped"
    f_ab, f_a1b, f_ab1 = values
    return "passed" if (b - a) * f_ab + a * f_a1b - b * f_ab1 == 0 else "failed"


def _pochhammer(rng: _Lcg) -> str:
    a, b = rng.rational(), rng.rational()
    k = rng.randint(0, 10)
    lhs = a * _rising(a + 1, k) * _rising(b, k) - b * _rising(a, k) * _rising(b + 1, k)
    return "passed" if lhs == (a - b) * _rising(a, k) * _rising(b, k) else "failed"


_DRAWS = {"pfaff": _pfaff, "contiguity": _contiguity, "pochhammer": _pochhammer}


def suite_counts(suite: str, seed: int, cases: int | None = None) -> dict:
    """Expected {passed, failed, skipped} of a seeded suite; ``cases`` defaults per suite."""
    rng = _Lcg(seed)
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    while counts["passed"] + counts["failed"] < (cases or DEFAULT_CASES[suite]):
        counts[_DRAWS[suite](rng)] += 1
    return counts


def exhaustive_counts() -> dict[str, dict]:
    """Checks made by the exhaustive suites; the identities hold, so all pass."""
    sizes = {
        "hockey": sum(range(1, 41)),
        "routes": sum(n + 1 for _m in range(1, 9) for n in range(2, 11)),
        "closedforms": sum(13 - m for m in range(2, 9)),
    }
    return {name: {"passed": size, "failed": 0, "skipped": 0} for name, size in sizes.items()}
