"""Test oracles: slow exact references that the package's own searches
and bounds are checked against.  None of them is part of the package.

* exhaustive_min and exhaustive_best: the minimum-A table by enumerating
  every composition of t, with a bound that cuts only branches that
  cannot win; _enumerate_min is the plain enumeration that checks it.
* chi_square_divergence: chi2(p || f/t) exactly, an upper bound on D.
"""

import itertools
from fractions import Fraction

from quantacode import FrequencyTable, ProbabilityVector


# =============================================================================
# exhaustive composition search (test oracle)
# =============================================================================

def exhaustive_min(nums, d: int, t: int):
    """Minimum-A composition by enumeration, ties to the lexicographically
    smallest f.  Exact for any operand size.

    Compositions of t into positive parts are visited in lexicographic
    order and the first minimum wins.  A branch whose running maximum is
    already >= the best A found so far is cut: no completion of it can be
    strictly smaller, so the result is that of the full enumeration.
    """
    nums = [int(v) for v in nums]
    m = len(nums)
    x = [t * v for v in nums]
    best_a = None
    best_f = None
    f = [0] * m

    def rec(i, left, cur_max):
        nonlocal best_a, best_f
        if best_a is not None and cur_max >= best_a:
            return
        if i == m - 1:
            f[i] = left
            e = x[i] - left * d
            if e < 0:
                e = -e
            a = e if e > cur_max else cur_max
            if best_a is None or a < best_a:
                best_a = a
                best_f = tuple(f)
            return
        for v in range(1, left - (m - i - 1) + 1):
            f[i] = v
            e = x[i] - v * d
            if e < 0:
                e = -e
            rec(i + 1, left - v, e if e > cur_max else cur_max)

    rec(0, t, 0)
    return best_f, best_a


def _enumerate_min(nums, d, t):
    """Every composition of t into positive parts, in lexicographic order;
    the first one with the smallest A wins."""
    m = len(nums)
    best_f, best_a = None, None
    for head in itertools.product(range(1, t), repeat=m - 1):
        last = t - sum(head)
        if last < 1:
            continue
        f = (*head, last)
        a = max(abs(t * v - fi * d) for v, fi in zip(nums, f))
        if best_a is None or a < best_a:
            best_f, best_a = f, a
    return best_f, best_a


def exhaustive_best(p: ProbabilityVector, t: int) -> FrequencyTable:
    """The delta_star minimizer over every composition of t into m parts."""
    f, _ = exhaustive_min(p.numerators, p.common_denominator, t)
    return FrequencyTable.from_freqs(p, f)


def chi_square_divergence(p: ProbabilityVector, table: FrequencyTable) -> Fraction:
    """chi2(p || f/t) = sum_i (p_i - q_i)**2 / q_i with q_i = f_i/t, exactly.

    Computed as sum_i p_i * (p_i - q_i) / q_i, the same sum since
    sum_i q_i = 1.  By Jensen, D(p || q) <= ln(1 + chi2) <= chi2, so it
    bounds the divergence from above without evaluating a logarithm.
    """
    nums, d = p.numerators, p.common_denominator
    t, f = table.t, table.freqs
    num_total = 0
    den_prod = 1
    for fi in f:
        den_prod *= fi
    for i in range(p.m):
        e = t * nums[i] - f[i] * d
        num_total += nums[i] * e * (den_prod // f[i])
    return Fraction(num_total, d * d * den_prod)
