"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either checked in exact rational / integer
arithmetic or was computed by an independent oracle (full enumeration,
direct high-precision evaluation) before being frozen here.  Criterion 3
checks Hurwitz's constant 5**-0.5 as the asymptotic bound it is: up to
10**4, t**2 * delta_star drops more than 1e-3 below it only at the
denominators that Legendre's and Binet's theorems name (t = 3 and t = 8),
and the test derives that set from the closed form rather than listing it.
"""

import contextlib
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import quantacode as qc
from quantacode import _kernels as K
from quantacode.bounds import (
    KAPPA_GENERIC,
    KAPPA_GOLDEN,
    lemma1_exact,
    theorem1_exact,
)

from conftest import random_decimal_probs, strict_rounding_regime
from oracles import chi_square_divergence, exhaustive_min

FIB = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
       1597, 2584, 4181, 6765]


@contextlib.contextmanager
def criterion(num, desc, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {desc}: FAIL ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"\n[criterion {num}] {desc}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"


def test_criterion_1_error_bound_soundness():
    """1000 random (source, table) pairs with ratio < 1: the divergence never
    exceeds m * delta_star / (1 - delta_star/p_min).  Checked twice per pair:
    exactly in rationals via the tangent-line majorant, and directly at
    50-digit precision."""
    with criterion(1, "error-bound soundness, 1000 random pairs", 10):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            m = int(rng.integers(2, 9))
            p = qc.ProbabilityVector(random_decimal_probs(rng, m))
            t = int(rng.integers(m, 500))
            table = qc.round_min_max(p, t)
            freqs = list(table.freqs)
            for _ in range(int(rng.integers(0, 4))):  # perturb off the optimum
                i, j = rng.integers(0, m, 2)
                if freqs[int(i)] > 1:
                    freqs[int(i)] -= 1
                    freqs[int(j)] += 1
            table = qc.FrequencyTable.from_freqs(p, freqs)
            prof = qc.error_profile(p, table)
            if prof.ratio >= 1:
                continue
            checked += 1
            exact_upper = chi_square_divergence(p, table)
            exact_bound = lemma1_exact(m, prof.delta_star, p.p_min)
            assert exact_upper <= exact_bound, (p.probs, table.freqs)
            d = qc.kl_divergence(p, table).nats
            bound = qc.lemma1_bound(m, prof.delta_star, p.p_min)
            assert d <= bound, (p.probs, table.freqs, d, bound)
        assert checked == 1000


def test_criterion_2_fixed_denominator_rounding():
    """For 20 regime-conditioned random sources per m in {2,3,4,8} and every
    t in [m, 10**4]: delta_star < 1/t always (hard); the share of t with
    delta_star <= 1/(2t) is reported against the 60% soft threshold; and
    wherever delta_star <= 1/(2t) and the bound's domain holds, the
    divergence stays below the fixed-t rounding bound (float64 everywhere,
    50-digit recheck on the tightest margins, exact rationals on a stride)."""
    with criterion(2, "min-max rounding: error and bound behavior", 60):
        rng = np.random.default_rng(202)
        t_max = 10**4
        soft_report = {}
        for m in (2, 3, 4, 8):
            fracs = []
            for _ in range(20):
                while True:
                    probs = random_decimal_probs(rng, m, min_p=0.5 / m)
                    if strict_rounding_regime(probs, m):
                        break
                p = qc.ProbabilityVector(probs)
                d = p.common_denominator
                nums = p.numerators
                a_arr, f_arr = K.minmax_scan(nums, d, m, t_max, want_freqs=True)
                a = np.asarray(a_arr, dtype=np.int64)
                t_range = np.arange(m, t_max + 1, dtype=np.int64)

                # hard: delta_star < 1/t  <=>  A < d
                assert (a < d).all(), f"m={m} p={probs}"

                # soft threshold, reported: delta_star <= 1/(2t) <=> 2A <= d
                half = 2 * a <= d
                fracs.append(float(half.mean()))

                # bound check at every qualifying t within the bound's domain
                pmn, pmd = p.p_min.numerator, p.p_min.denominator
                dom = 2 * t_range * pmn > pmd
                qual = half & dom
                tq = t_range[qual]
                pf = np.array([float(x) for x in p.probs])
                dvals = (float(pf @ np.log(pf)) + np.log(tq)
                         - np.log(np.asarray(f_arr, float)[qual]) @ pf)
                thm1 = ((m / (2.0 * tq))
                        / (1 - pmd / (2.0 * tq * pmn)))
                assert (dvals <= thm1 * (1 + 1e-9) + 1e-18).all(), f"m={m}"

                # 50-digit recheck where the float margin is thinnest
                margins = thm1 - dvals
                order = np.argsort(margins)[:10]
                for j in order:
                    t = int(tq[j])
                    table = qc.round_min_max(p, t)
                    dn = qc.kl_divergence(p, table).nats
                    assert dn <= qc.theorem1_bound(m, t, p.p_min), (m, t)

                # exact-rational spot checks on a stride
                for t in map(int, tq[:: max(1, len(tq) // 25)]):
                    table = qc.round_min_max(p, t)
                    assert (chi_square_divergence(p, table)
                            <= theorem1_exact(m, t, p.p_min)), (m, t)
            soft_report[m] = (min(fracs), sum(fracs) / len(fracs))
        for m, (lo, mean) in sorted(soft_report.items()):
            flag = "meets" if lo >= 0.6 else "below"
            print(f"  soft 1/(2t) share m={m}: min {lo:.1%}, "
                  f"mean {mean:.1%} ({flag} the 60% soft threshold)")


def test_criterion_3_golden_binary_records():
    """Golden-conjugate source swept to 10**4: every Fibonacci denominator is
    a record and the record qualities with t >= 100 sit inside
    [0.4472*(1-1e-3), 0.4472*(1+1e-2)].  The final clause checks that
    5**-0.5 is sharp in the limit: t**2 * delta_star drops below
    5**-0.5 * (1 - eps), eps = 1e-3, at exactly the t that theory predicts.
    By Legendre's theorem, t**2 * delta_star < 1/2 makes t a convergent
    denominator of psi, i.e. a Fibonacci number F_n; by Binet's formula
    F_n**2 * delta_star = (1 - (-psi**2)**n) / sqrt(5), which is below the
    threshold exactly when n is even and psi**(2n) > eps.  For eps = 1e-3
    that is t = 3 and t = 8."""
    with criterion(3, "golden-ratio sharpness sweep", 30):
        p = qc.golden_pair()
        d = p.common_denominator
        res = qc.record_scan(p, 10**4, kappa=KAPPA_GOLDEN)
        fib = [t for t in FIB if t <= 10**4]
        assert set(fib) <= set(res.record_ts), "missing Fibonacci records"
        assert set(res.record_ts) <= set(fib), "unexpected non-Fibonacci record"

        lo = Fraction(4472, 10**4) * Fraction(999, 1000)
        hi = Fraction(4472, 10**4) * Fraction(101, 100)
        for r in res.records:
            if r.t >= 100:
                q = Fraction(r.t * r.delta_star.numerator * r.t,
                             r.delta_star.denominator)
                assert lo <= q <= hi, (r.t, float(q))

        # exact check of q_t = t^2 delta_star < 5**-0.5 * (1 - eps), eps = u/w:
        # (t*A)^2 * 5 * w^2 < d^2 * (w - u)^2
        eps = Fraction(1, 1000)
        u, w = eps.numerator, eps.denominator
        violators = {}
        for t, a, *_ in qc.scan_rows(p, 10**4):
            v = t * a
            if 5 * (v * w) ** 2 < (d * (w - u)) ** 2:
                violators[t] = float(Fraction(v, d))
        expected = _golden_undershoots(eps, 10**4)
        unexpected = sorted(set(violators) - expected)
        missing = sorted(expected - set(violators))
        assert not unexpected and not missing, (
            f"denominators beating 5**-0.5*(1-{eps}): {violators}; "
            f"unexpected {unexpected}, missing {missing} "
            f"(closed form predicts {sorted(expected)})"
        )


def _golden_undershoots(eps, t_max):
    """Fibonacci F_n in [2, t_max] with F_n**2 * delta_star below
    5**-0.5 * (1 - eps): n even and psi**(2n) > eps, psi = (sqrt(5) - 1)/2,
    evaluated at 50 digits independently of the scan."""
    with mpmath.workdps(50):
        psi = (mpmath.sqrt(5) - 1) / 2
        eps_mp = mpmath.mpf(eps.numerator) / eps.denominator
        out = set()
        n, f, f_next = 1, 1, 1  # n, F_n, F_{n+1}
        while f <= t_max:
            if f >= 2 and n % 2 == 0 and psi ** (2 * n) > eps_mp:
                out.add(f)
            n, f, f_next = n + 1, f_next, f + f_next
        return out


def test_criterion_4_generic_binary_records():
    """Square-root-of-two source swept to 10**4: at least 5 record
    denominators drive t**2 * delta_star below 2**-1.5, and each one's exact
    divergence stays below the binary record bound with the generic
    constant."""
    with criterion(4, "generic binary constant sweep", 30):
        p = qc.silver_pair()
        res = qc.record_scan(p, 10**4, kappa=KAPPA_GENERIC)
        hits = set(res.fact_hits)
        winners = [r for r in res.records if r.t in hits]
        assert len(winners) >= 5, [r.t for r in winners]
        assert [r.t for r in winners] == [2, 12, 70, 408, 2378]
        for r in winners:
            table = qc.FrequencyTable.from_freqs(p, r.freqs)
            dn = qc.kl_divergence(p, table).nats
            bound = qc.theorem2_bound_binary(r.t, p.p_min, KAPPA_GENERIC)
            assert dn <= bound, r.t


def test_criterion_5_mary_records():
    """Ternary irrational source swept to 10**5: at least 5 denominators
    satisfy t**(4/3) * delta_star < 3/4 with at least one per decade
    [10**k, 10**(k+1)), k = 1..4, and each satisfies the m-ary record
    bound."""
    with criterion(5, "ternary record existence sweep", 300):
        p = qc.irrational_triple()
        res = qc.record_scan(p, 10**5)
        hits = res.fact_hits
        assert len(hits) >= 5, len(hits)
        arr = np.array(hits)
        for k in (1, 2, 3, 4):
            lo = 10**k
            assert ((arr >= lo) & (arr < 10 * lo)).any(), f"decade 10^{k}"
        nums, d = p.numerators, p.common_denominator
        for t in hits:
            f, _ = K.minmax_freqs_exact(nums, d, t)
            table = qc.FrequencyTable.from_freqs(p, f)
            dn = qc.kl_divergence(p, table).nats
            assert dn <= qc.theorem2_bound_mary(3, t, p.p_min), t
        print(f"  qualifying denominators: {len(hits)} "
              f"(first {hits[:6]}, last {hits[-1]})")


def test_criterion_6_oracle_equivalence():
    """50 random sources with m <= 4, every t in [m, 64]: the apportionment
    construction reaches exactly the delta_star of full enumeration."""
    with criterion(6, "rounding construction matches enumeration", 60):
        rng = np.random.default_rng(606)
        cases = [2] * 17 + [3] * 17 + [4] * 16
        for m in cases:
            p = qc.ProbabilityVector(random_decimal_probs(rng, m))
            nums, d = p.numerators, p.common_denominator
            a_arr, _ = K.minmax_scan(nums, d, m, 64)
            for off, t in enumerate(range(m, 65)):
                _, a_opt = exhaustive_min(nums, d, t)
                assert int(a_arr[off]) == a_opt, (p.probs, t)


def test_criterion_7_planner_end_to_end():
    """Guaranteed-mode plans for 30 random sources and three targets always
    verify below target with width below the raw log2(m/R + 1/p_min) bound;
    on the golden source the opportunistic width is at most 0.6 of the
    guaranteed one at a 1e-5 target."""
    with criterion(7, "width planner end-to-end", 60):
        rng = np.random.default_rng(707)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            p = qc.ProbabilityVector(random_decimal_probs(rng, m, min_p=0.3 / m))
            for target in ("1e-2", "1e-3", "1e-4"):
                plan = qc.plan_precision(p, target, mode="guaranteed")
                assert plan.verified_divergence <= plan.target_r
                assert plan.width_bits < float(plan.raw_width_bound)
        g = qc.golden_pair()
        guaranteed = qc.plan_precision(g, "1e-5", mode="guaranteed")
        opportunistic = qc.plan_precision(g, "1e-5", mode="opportunistic")
        assert opportunistic.width_bits <= 0.6 * guaranteed.width_bits, (
            opportunistic.width_bits, guaranteed.width_bits)
        print(f"  golden: opportunistic W={opportunistic.width_bits} "
              f"(t={opportunistic.t}) vs guaranteed W={guaranteed.width_bits}")


def test_criterion_8_coder_validation():
    """p = (0.7, 0.2, 0.1), n = 10**6, fixed seed: lossless roundtrip; the
    exact t=10 table shows excess <= 1e-3 bits/symbol; the uniform t=3 table
    shows |excess - D| <= 0.005 with D evaluated independently at 50-digit
    precision."""
    with criterion(8, "range-coder rate validation", 60):
        p = qc.parse_probability_vector(["0.7", "0.2", "0.1"])
        n, seed = 10**6, 42
        syms = qc.sample_symbols(p, n, seed)

        exact = qc.round_min_max(p, 10)
        blob = qc.encode(syms, exact)
        assert np.array_equal(qc.decode(blob, n, exact), syms)

        rep = qc.measure_rate(p, exact, n, seed)
        assert rep.divergence_bits == 0
        assert rep.excess <= 1e-3, rep.excess

        uniform = qc.round_min_max(p, 3)
        assert uniform.freqs == (1, 1, 1)
        rep3 = qc.measure_rate(p, uniform, n, seed)
        d_bits = float(qc.kl_divergence(p, uniform).bits)
        assert abs(rep3.excess - d_bits) <= 0.005, (rep3.excess, d_bits)
        print(f"  exact-table excess {rep.excess:.2e}; "
              f"uniform-table |excess - D| "
              f"{abs(rep3.excess - d_bits):.2e}")
