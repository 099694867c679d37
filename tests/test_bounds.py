import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantacode import (
    AlphabetNotMary,
    FrequencyTable,
    InvalidArgument,
    KappaMissing,
    NonPositiveTarget,
    PreconditionViolated,
    ProbabilityVector,
    RatioNotLessThanOne,
    TargetUnachievableWithinScan,
    ZeroFrequency,
    best_table_under_width,
    build_bound_report,
    corollary1_width,
    corollary2_width,
    error_profile,
    golden_pair,
    golden_surrogate,
    irrational_triple,
    kl_divergence,
    lemma1_bound,
    parse_probability_vector,
    plan_precision,
    register_width,
    round_min_max,
    second_order_width,
    theorem1_bound,
    theorem2_bound_binary,
    theorem2_bound_mary,
)
from quantacode.bounds import (
    KAPPA_GENERIC,
    KAPPA_GOLDEN,
    WidthBound,
    _first_qualifying_t,
    _inexact_rows_miss,
    _second_order_holds,
    lemma1_exact,
    theorem1_exact,
)
from quantacode.precision import to_mpf
from quantacode.prob_model import MAX_TOTAL

from conftest import random_decimal_probs
from oracles import chi_square_divergence


def table_for(p, freqs):
    return FrequencyTable.from_freqs(p, freqs)


class TestKlDivergence:
    def test_zero_when_model_exact(self):
        p = parse_probability_vector(["0.5", "0.5"])
        d = kl_divergence(p, table_for(p, [1, 1]))
        assert d.nats == 0 and d.bits == 0

    def test_uniform_model_is_one_minus_entropy(self):
        p = parse_probability_vector(["0.7", "0.3"])
        d = kl_divergence(p, table_for(p, [1, 1]))
        # 1 - H2(0.7); H2(0.7) = 0.8812908992306926...
        assert abs(float(d.bits) - 0.11870910076930667) < 1e-14

    def test_quarter_split(self):
        p = parse_probability_vector(["0.7", "0.3"])
        d = kl_divergence(p, table_for(p, [3, 1]))
        # 0.7 ln(14/15) + 0.3 ln(6/5), evaluated independently
        assert abs(float(d.nats) - 0.006401456997320366) < 1e-14

    def test_bits_nats_ratio(self):
        p = parse_probability_vector(["0.6", "0.4"])
        d = kl_divergence(p, table_for(p, [2, 2]))
        with mp.workdps(50):
            assert abs(d.bits - d.nats / mp.log(2)) < mp.mpf(10) ** -45


class TestLemma1:
    def test_zero_error(self):
        assert lemma1_bound(2, Fraction(0), Fraction(1, 2)) == 0

    def test_worked_example(self):
        b = lemma1_bound(2, Fraction(1, 100), Fraction(1, 10))
        assert abs(float(b) - 1 / 45) < 1e-15
        assert lemma1_exact(2, Fraction(1, 100), Fraction(1, 10)) == Fraction(1, 45)

    def test_boundary_rejected(self):
        with pytest.raises(RatioNotLessThanOne):
            lemma1_bound(2, Fraction(1, 10), Fraction(1, 10))

    @given(st.integers(2, 8), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_divergence_never_exceeds_bound(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m, min_p=0.4 / m))
        t = int(rng.integers(2 * m, 400))
        table = round_min_max(p, t)
        prof = error_profile(p, table)
        if prof.ratio >= 1:
            return
        d = kl_divergence(p, table).nats
        upper = chi_square_divergence(p, table)
        exact = lemma1_exact(m, prof.delta_star, p.p_min)
        assert d <= upper + mp.mpf(10) ** -45
        assert upper <= exact


class TestTheorem1:
    def test_worked_example(self):
        b = theorem1_bound(2, 100, Fraction(3, 10))
        assert abs(float(b) - 0.01 * 60 / 59) < 1e-15

    def test_asymptotically_m_over_2t(self):
        t = 10**6
        b = theorem1_bound(2, t, Fraction(3, 10))
        assert abs(float(b) / (2 / (2 * t)) - 1) < 1e-5

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            theorem1_bound(2, 1, Fraction(3, 10))

    def test_strictly_decreasing_in_t(self):
        vals = [theorem1_bound(3, t, Fraction(1, 5)) for t in (10, 20, 50, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_equals_lemma1_at_half_t(self):
        # the rounding bound is the error bound evaluated at delta = 1/(2t)
        for t in (7, 50, 1234):
            assert (lemma1_exact(5, Fraction(1, 2 * t), Fraction(1, 9))
                    == theorem1_exact(5, t, Fraction(1, 9)))


class TestTheorem2:
    def test_mary_worked_example(self):
        b = theorem2_bound_mary(3, 1000, Fraction(1, 5))
        assert abs(float(b) - 3.0015007503751877e-4) < 1e-16

    def test_mary_rejects_binary(self):
        with pytest.raises(AlphabetNotMary):
            theorem2_bound_mary(2, 100, Fraction(1, 3))

    def test_mary_asymptotic_form(self):
        with mp.workdps(50):
            for t in (10**6, 10**9):
                b = theorem2_bound_mary(3, t, Fraction(1, 5))
                lead = 3 / mp.mpf(t) ** (mp.mpf(4) / 3)
                assert abs(b / lead - 1) < mp.mpf(t) ** (-mp.mpf(4) / 3) * 10

    def test_mary_precondition(self):
        with pytest.raises(PreconditionViolated):
            theorem2_bound_mary(3, 2, Fraction(1, 1000))

    def test_kappa_values(self):
        assert abs(float(KAPPA_GOLDEN.value()) - 0.4472135954999579) < 1e-15
        assert abs(float(KAPPA_GENERIC.value()) - 0.35355339059327373) < 1e-15

    def test_binary_worked_example(self):
        b = theorem2_bound_binary(100, Fraction(3, 10), KAPPA_GENERIC)
        assert abs(float(b) - 7.0719012434196592e-5) < 1e-18

    def test_binary_precondition(self):
        with pytest.raises(PreconditionViolated):
            theorem2_bound_binary(1, Fraction(1, 3), KAPPA_GENERIC)

    def test_record_bounds_strictly_decreasing_in_t(self):
        mary = [theorem2_bound_mary(3, t, Fraction(1, 5))
                for t in (10, 40, 160, 640)]
        assert all(a > b for a, b in zip(mary, mary[1:]))
        binary = [theorem2_bound_binary(t, Fraction(3, 10), KAPPA_GENERIC)
                  for t in (3, 9, 27, 81)]
        assert all(a > b for a, b in zip(binary, binary[1:]))

    def test_chain_identity_with_lemma1(self):
        # the record bounds are the error bound at the record error levels;
        # the bounds are evaluated at 50 digits, the lemma-1 side at 60
        with mp.workdps(60):
            pm = Fraction(1, 5)
            pmf = mp.mpf(1) / 5
            for t in (100, 999):
                delta = mp.mpf(t) ** (-(1 + mp.mpf(1) / 3))
                via_lemma = 3 * delta / (1 - delta / pmf)
                direct = theorem2_bound_mary(3, t, pm)
                assert abs(via_lemma / direct - 1) < mp.mpf(10) ** -47
                k = mp.sqrt(mp.mpf(1) / 5)
                delta = k / mp.mpf(t) ** 2
                via_lemma = 2 * delta / (1 - delta / pmf)
                direct = theorem2_bound_binary(t, pm, KAPPA_GOLDEN)
                assert abs(via_lemma / direct - 1) < mp.mpf(10) ** -47


class TestWidthCorollaries:
    def test_corollary1_binary_example(self):
        w = corollary1_width(2, "1e-3", Fraction(3, 10))
        assert w.width == 10
        assert abs(float(w.raw) - 10.968184) < 1e-4

    def test_corollary1_quaternary_example(self):
        w = corollary1_width(4, "1e-3", Fraction(1, 10))
        assert w.width == 11
        assert abs(float(w.raw) - 11.969364) < 1e-4

    def test_corollary1_degenerate_clamp(self):
        assert corollary1_width(2, "1e9", Fraction(1, 2)).width == 1

    def test_corollary1_rejects_nonpositive(self):
        with pytest.raises(NonPositiveTarget):
            corollary1_width(2, 0, Fraction(1, 2))

    def test_corollary2_binary_example(self):
        v = corollary2_width(2, "1e-3", Fraction(3, 10), kappa=KAPPA_GENERIC)
        assert abs(float(v) - 5.734092) < 1e-4

    def test_corollary2_ternary_example(self):
        v = corollary2_width(3, "1e-3", Fraction(1, 5))
        assert abs(float(v) - 9.664871) < 1e-4

    def test_corollary2_below_corollary1_raw(self):
        for m, pm in ((2, Fraction(3, 10)), (3, Fraction(1, 5)),
                      (8, Fraction(1, 100))):
            kappa = KAPPA_GENERIC if m == 2 else None
            c2 = corollary2_width(m, "1e-4", pm, kappa=kappa)
            c1 = corollary1_width(m, "1e-4", pm).raw
            assert c2 < c1

    def test_corollary2_needs_kappa_for_binary(self):
        with pytest.raises(KappaMissing):
            corollary2_width(2, "1e-3", Fraction(3, 10))

    def test_corollary2_rejects_kappa_for_mary(self):
        with pytest.raises(InvalidArgument):
            corollary2_width(3, "1e-3", Fraction(1, 5), kappa=KAPPA_GENERIC)


def exact_target(r):
    """The exact rational of an mpf."""
    man, exp = r.man_exp
    return Fraction(man) * Fraction(2) ** exp


def second_order_bound(p, x):
    """x**2 * sum_i 1/(p_i - x), exactly, for 0 <= x < p_min."""
    return x * x * sum(1 / (pi - x) for pi in p.probs)


class TestSecondOrderWidth:
    def test_chi_square_sound_and_second_order(self):
        # kl_divergence <= chi2 <= delta_star**2 * sum_i 1/(p_i - delta_star)
        # over 1,000 seeded (p, t) pairs, the tables perturbed off the
        # optimum as in criterion 1
        rng = np.random.default_rng(111)
        checked = 0
        while checked < 1000:
            m = int(rng.integers(2, 9))
            p = ProbabilityVector(random_decimal_probs(rng, m))
            t = int(rng.integers(m, 500))
            freqs = list(round_min_max(p, t).freqs)
            for _ in range(int(rng.integers(0, 4))):
                i, j = (int(v) for v in rng.integers(0, m, 2))
                if freqs[i] > 1:
                    freqs[i] -= 1
                    freqs[j] += 1
            table = table_for(p, freqs)
            delta_star = error_profile(p, table).delta_star
            if delta_star >= p.p_min:
                continue
            checked += 1
            chi2 = chi_square_divergence(p, table)
            qs = [Fraction(f, t) for f in freqs]
            assert chi2 == sum((pi - q) ** 2 / q for pi, q in zip(p.probs, qs))
            assert kl_divergence(p, table).nats <= to_mpf(chi2)
            assert chi2 <= second_order_bound(p, delta_star)

    def test_width_is_the_smallest_that_the_bound_guarantees(self):
        # for 200 sources and R = 1e-3 ... 1e-9: the width matches the
        # definition, found by a plain loop over W; it never exceeds
        # corollary 1; and the min-max table at t = 2**W meets R in exact
        # chi2 (D <= chi2), as the best table under W does where it is cheap
        rng = np.random.default_rng(222)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            p = ProbabilityVector(random_decimal_probs(rng, m, min_p=0.01 / m))
            for k in range(3, 10):
                r = to_mpf(f"1e-{k}")
                w = second_order_width(p, r)
                want = register_width(p.m)
                while not (Fraction(1, 2**want) < p.p_min and second_order_bound(
                        p, Fraction(1, 2**want)) <= exact_target(r)):
                    want += 1
                assert w == want, (p.probs, k)
                assert w <= corollary1_width(p.m, r, p.p_min).width
                assert chi_square_divergence(p, round_min_max(p, 1 << w)) <= exact_target(r)
                if w <= 12:
                    best = best_table_under_width(p, w)
                    assert chi_square_divergence(p, best) <= exact_target(r)

    def test_exact_at_the_boundary(self):
        # targets within 2**-1200 of the bound at W = 10, on either side,
        # and a target equal to the bound at W = 2 (dyadic for p = (1/2, 1/2))
        def mpf_of(num, den, up):
            q = -((-num << 1200) // den) if up else (num << 1200) // den
            with mp.workdps(400):
                return mp.ldexp(q, -1200)

        g = golden_pair()
        edge = second_order_bound(g, Fraction(1, 1024))
        assert second_order_width(g, mpf_of(edge.numerator, edge.denominator, True)) == 10
        assert second_order_width(g, mpf_of(edge.numerator, edge.denominator, False)) == 11
        half = parse_probability_vector(["1/2", "1/2"])
        assert second_order_bound(half, Fraction(1, 4)) == Fraction(1, 2)
        assert second_order_width(half, mp.mpf(0.5)) == 2
        assert second_order_width(half, mpf_of(2**200 - 1, 2**201, False)) == 3

    def test_exact_on_either_side_of_the_cutoff(self):
        # past w = bl(m) + (m + 2)*bl(d) + bl(man) the test builds no 2**w
        # and compares R * 4**w with S = sum_i 1/p_i alone.  Targets on
        # man's grid next to S, S itself included, must get the defining
        # sum's answer at every w from the least valid one to past that cutoff
        seen = set()
        for probs in (["1/2", "1/4", "1/4"], ["0.7", "0.3"], ["1/3", "1/3", "1/3"]):
            p = parse_probability_vector(probs)
            nums, d = p.numerators, p.common_denominator
            big_s = sum(1 / pi for pi in p.probs)
            w_lo = (d // min(nums)).bit_length()    # the least w with 2**w * p_min > 1
            for j in (0, 20, 40):
                base = math.floor(big_s * 2**j)
                for man in range(base - 1, base + 3):
                    cut = (p.m.bit_length() + (p.m + 2) * d.bit_length()
                           + man.bit_length())
                    for w in range(w_lo, cut + 3):
                        want = (second_order_bound(p, Fraction(1, 2**w)) * 4**w
                                <= Fraction(man, 2**j))
                        assert _second_order_holds(nums, d, w, man, -j - 2 * w) == want
                        seen.add((w > cut, want))
        assert len(seen) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveTarget):
            second_order_width(golden_pair(), 0)


class TestBoundReport:
    def test_flags_and_ordering(self):
        p = parse_probability_vector(["0.7", "0.3"])
        rep = build_bound_report(p, round_min_max(p, 4))
        assert rep.applicable["lemma1"]
        assert rep.applicable["theorem1"]
        assert rep.divergence_nats <= rep.lemma1
        assert rep.divergence_nats <= rep.theorem1

    def test_golden_record_qualifies_theorem2(self):
        # 21 is a record whose quality lands below the golden constant
        # (the record qualities alternate around it)
        p = golden_pair()
        rep = build_bound_report(p, round_min_max(p, 21), kappa=KAPPA_GOLDEN)
        assert rep.applicable["theorem2"]
        assert rep.divergence_nats <= rep.theorem2
        assert rep.kappa.label == "golden"

    def test_exact_table_all_bounds_trivial(self):
        p = parse_probability_vector(["0.5", "0.5"])
        rep = build_bound_report(p, round_min_max(p, 2))
        assert rep.divergence_nats == 0
        assert rep.delta_star == 0
        assert rep.applicable["lemma1"] and rep.applicable["theorem1"]

    def test_csv_row_shape(self):
        p = parse_probability_vector(["0.7", "0.3"])
        rep = build_bound_report(p, round_min_max(p, 4))
        assert len(rep.csv_row().split(",")) == len(rep.CSV_HEADER.split(","))


class TestPlanner:
    def test_exact_source_returns_exact_table(self):
        p = parse_probability_vector(["0.7", "0.3"])
        plan = plan_precision(p, "1e-9", mode="opportunistic")
        assert plan.t == 10
        assert plan.width_bits == 4
        assert plan.verified_divergence == 0

    def test_guaranteed_mode_verifies(self):
        p = parse_probability_vector(["0.7", "0.3"])
        plan = plan_precision(p, "1e-9", mode="guaranteed")
        assert plan.verified_divergence <= plan.target_r
        assert plan.width_bits <= plan.corollary1_width

    def test_golden_opportunistic_beats_guaranteed(self):
        g = golden_pair()
        guaranteed = plan_precision(g, "1e-5", mode="guaranteed")
        opportunistic = plan_precision(g, "1e-5", mode="opportunistic")
        assert guaranteed.corollary1_width == 17
        assert opportunistic.t == 21
        assert opportunistic.width_bits <= 0.6 * guaranteed.width_bits

    def test_width_below_raw_bound(self, rng):
        for m in (2, 3, 5):
            p = ProbabilityVector(random_decimal_probs(rng, m, min_p=0.3 / m))
            plan = plan_precision(p, "1e-3", mode="guaranteed")
            assert plan.width_bits < float(plan.raw_width_bound)
            assert plan.memory_bits == m * plan.width_bits

    def test_nonpositive_target(self):
        with pytest.raises(NonPositiveTarget):
            plan_precision(golden_pair(), 0, mode="guaranteed")

    def test_unachievable_raises(self, monkeypatch):
        import quantacode.bounds as B
        monkeypatch.setattr(B, "_first_qualifying_t", lambda *a, **k: None)
        with pytest.raises(TargetUnachievableWithinScan):
            plan_precision(golden_pair(), "1e-5", mode="opportunistic")

    def test_first_qualifying_respects_cap(self):
        assert _first_qualifying_t(golden_pair(), to_mpf("1e-12"), 50) is None

    def test_unreachable_target_needs_no_kl_divergence(self, monkeypatch):
        # the float screen passes every row whose estimate lies within its
        # error bound (about 3e-14) of R = 1e-40, on golden 540 rows to
        # 2**16; Pinsker's D >= 2 * delta_star**2 drops them all
        import quantacode.bounds as B
        calls = []
        monkeypatch.setattr(B, "kl_divergence",
                            lambda *a: calls.append(a) or kl_divergence(*a))
        r = to_mpf("1e-40")
        assert _first_qualifying_t(golden_pair(), r, 1 << 16) is None
        assert not calls

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            plan_precision(golden_pair(), "1e-5", mode="fastest")

    def test_opportunistic_matches_brute_force(self):
        # for the first two sources R = D(t0) is so small that a screen
        # widened only by a relative 1e-9 drops t = 383 and t = 895; the
        # random sources and the exact-path presets add cover
        def first_t(p, r):
            return next(t for t in range(p.m, 1 << 24)
                        if kl_divergence(p, round_min_max(p, t)).nats <= r)

        cases = [(ProbabilityVector([Fraction(12167, 20000), Fraction(7833, 20000)]),
                  2298, 383),
                 (ProbabilityVector([Fraction(193297, 10**6), Fraction(403259, 10**6),
                                     Fraction(100861, 250000)]), 895, 895),
                 (golden_pair(), 400, None), (irrational_triple(), 400, None)]
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            cases.append((ProbabilityVector(random_decimal_probs(rng, m)),
                          int(rng.integers(m, 1500)), None))
        for p, t0, expected in cases:
            r = kl_divergence(p, round_min_max(p, t0)).nats
            t = first_t(p, r)
            assert expected in (None, t)
            assert _first_qualifying_t(p, r, t0) == t
            assert plan_precision(p, r, mode="opportunistic").t == t

    def test_low_precision_screen_keeps_what_kl_divergence_accepts(self):
        # the tables at t = 9 and t = 639 = 71 * 9 have the same ratios and
        # D = 3.28e-7; R is that D summed at 6 digits, where the rounding of
        # its terms dwarfs it.  The plan decides R at kl_divergence's own
        # digits, where t = 9 misses it
        p = ProbabilityVector([Fraction(277979, 500000), Fraction(222021, 500000)])
        r = mp.mpf((4725, -34))     # 2.75e-7
        assert plan_precision(p, r, mode="opportunistic").t == 151

    def test_low_precision_plan_meets_target_at_50_digits(self):
        # summed at 6 digits, the search took t = 142, whose D is 2.93e-7;
        # at kl_divergence's own digits it takes a t that meets R, as the
        # plans do
        p = ProbabilityVector([Fraction(277979, 500000), Fraction(222021, 500000)])
        r = to_mpf("2.75e-7")
        ts = [_first_qualifying_t(p, r, 1 << 24)]
        ts += [plan_precision(p, "2.75e-7", mode=mode).t
               for mode in ("opportunistic", "guaranteed")]
        for t in ts:
            assert kl_divergence(p, round_min_max(p, t)).nats <= r

    def test_guaranteed_fallback_takes_first_qualifying_t(self, monkeypatch):
        import quantacode.bounds as B
        p = golden_pair()
        monkeypatch.setattr(B, "best_table_under_width",
                            lambda p, w: round_min_max(p, p.m))
        plan = plan_precision(p, "1e-3", mode="guaranteed")
        first = next(t for t in range(p.m, (1 << plan.corollary1_width) + 1)
                     if kl_divergence(p, round_min_max(p, t)).nats <= plan.target_r)
        assert plan.t == first
        assert plan.table == round_min_max(p, first)

    def test_guaranteed_fallback_raises_when_nothing_qualifies(self, monkeypatch):
        import quantacode.bounds as B
        monkeypatch.setattr(B, "best_table_under_width",
                            lambda p, w: round_min_max(p, p.m))
        monkeypatch.setattr(B, "corollary1_width",
                            lambda m, r, pm: WidthBound(3, mp.mpf(4)))
        with pytest.raises(TargetUnachievableWithinScan, match=r"2\*\*3 "):
            plan_precision(golden_pair(), "1e-5", mode="guaranteed")

    def test_opportunistic_stops_at_the_guaranteed_width(self, monkeypatch):
        # t = 21 meets 1e-5 but is 5 bits wide: above the 3-bit cap, so the
        # search must not reach it, and the request is unachievable (exit
        # 3), not an invalid plan
        import quantacode.bounds as B
        monkeypatch.setattr(B, "corollary1_width",
                            lambda m, r, pm: WidthBound(3, mp.mpf(4)))
        with pytest.raises(TargetUnachievableWithinScan, match=r"2\*\*3 "):
            plan_precision(golden_pair(), "1e-5", mode="opportunistic")

    @pytest.mark.parametrize("probs, target", [
        ("golden", "1e-5"), ("golden", "1e-12"), ("golden", "1e-15"),
        ("0.7,0.2,0.1", "1e-4"), ("0.001,0.999", "1e-2"),
    ])
    def test_opportunistic_search_cap(self, monkeypatch, probs, target):
        # the search's t_cap is 2**min(max(w1, register_width(m)), w2, 24):
        # w2 binds for golden at 1e-5 and 1e-12, 24 at 1e-15 (w2 = 26), w1
        # for 0.001,0.999 (10 against w2 = 11)
        import quantacode.bounds as B
        caps = []
        monkeypatch.setattr(B, "_first_qualifying_t",
                            lambda p, r, t_cap: caps.append(t_cap))
        p = golden_pair() if probs == "golden" else parse_probability_vector(probs)
        w1 = corollary1_width(p.m, target, p.p_min).width
        w2 = second_order_width(p, target)
        with pytest.raises(TargetUnachievableWithinScan):
            plan_precision(p, target, mode="opportunistic")
        assert caps == [1 << min(max(w1, register_width(p.m)), w2, 24)]
        if (probs, target) == ("golden", "1e-5"):
            assert caps == [1024]

    def test_pmin_proportional_to_r_plan_runs_on_int64(self, monkeypatch):
        # p_min = 0.70710678118 * R overflows int64 from t = 46 on; the
        # search reads p's tables off the int64 kernel and calls the exact
        # reference only once per chunk and on the rows it cannot certify,
        # not on each of the 379,059 rows it scans
        from quantacode import _kernels
        calls = []
        exact = _kernels.minmax_freqs_exact
        monkeypatch.setattr(_kernels, "minmax_freqs_exact",
                            lambda *args: calls.append(args) or exact(*args))
        p = parse_probability_vector(["0.00000070710678118",
                                      "0.99999929289321882"])
        assert plan_precision(p, "1e-6", mode="opportunistic").t == 379060
        assert len(calls) < 1000

    @pytest.mark.parametrize("k, width", [(5, 10), (7, 13), (9, 16)])
    def test_guaranteed_golden_at_second_order_width(self, k, width):
        # corollary 1 asks for 17, 24 and 30 bits
        start = time.perf_counter()
        plan = plan_precision(golden_pair(), f"1e-{k}", mode="guaranteed")
        assert time.perf_counter() - start < 1
        assert plan.width_bits == plan.second_order_width == width
        assert f"second-order width: {width}" in plan.human_text()

    def test_guaranteed_beyond_coder_raises_before_any_scan(self, monkeypatch):
        import quantacode.bounds as B

        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(B, "best_table_under_width", no_scan)
        monkeypatch.setattr(B, "_first_qualifying_t", no_scan)
        start = time.perf_counter()
        with pytest.raises(TargetUnachievableWithinScan,
                           match="W = 26 bits.*--mode opportunistic"):
            plan_precision(golden_pair(), "1e-15", mode="guaranteed")
        assert time.perf_counter() - start < 5

    def test_forced_rows_refuse_only_unreachable_targets(self, monkeypatch):
        # with the coder capped at 2**12, p_min = 1e-4 < 2**-12 forces the
        # small symbol on every row; t = 4096's table (1, 4095) attains the
        # bound K = kl2(p_min || 2**-12) exactly
        import quantacode.bounds as B
        monkeypatch.setattr(B, "_MAX_BITS", 12)
        p = parse_probability_vector("0.0001,0.9999")
        k = kl_divergence(p, FrequencyTable.from_freqs(p, (1, 4095))).nats
        reach = k * (1 + mp.mpf("1e-9"))
        plan = plan_precision(p, reach, mode="opportunistic")
        assert plan.t == _first_qualifying_t(p, reach, 1 << 12) == 4096

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(B, "_iter_chunks", no_scan)
        with pytest.raises(TargetUnachievableWithinScan, match=r"2\*\*12"):
            plan_precision(p, k * (1 - mp.mpf("1e-9")), mode="opportunistic")

    def test_forced_rows_bound_sits_at_the_last_row(self):
        # 1e-8 < 2**-24: the bound is t = 2**24's divergence, 3.18e-8, so
        # 3.2e-8 stays reachable and 3.1e-8 is refused
        p = parse_probability_vector("0.00000001,0.99999999")
        table = round_min_max(p, 1 << 24)
        assert table.freqs == (1, (1 << 24) - 1)
        assert kl_divergence(p, table).nats < mp.mpf("3.2e-8")
        for target, miss in (("3.2e-8", False), ("3.1e-8", True), ("1e-9", True)):
            assert _inexact_rows_miss(p, to_mpf(target), 24) == miss

    @pytest.mark.parametrize("mode", ["guaranteed", "opportunistic"])
    @pytest.mark.parametrize("probs, target", [
        ("golden", "1e-9"), ("golden", "1e-12"), ("golden", "1e-15"),
        ("0.00000001,0.99999999", "1e-3"),
    ])
    def test_no_plan_wider_than_the_coder(self, mode, probs, target):
        # guaranteed golden at 1e-9 used to return t = 701,408,733
        p = golden_pair() if probs == "golden" else parse_probability_vector(probs)
        try:
            plan = plan_precision(p, target, mode=mode)
        except TargetUnachievableWithinScan:
            return
        assert plan.t <= MAX_TOTAL

    def test_eta_below_one_for_golden_records(self):
        plan = plan_precision(golden_pair(), "1e-5", mode="opportunistic")
        assert float(plan.eta()) < 1
