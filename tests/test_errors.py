"""Every library raise on bad input is a QuantacodeError that is still a
ValueError, so `except ValueError` callers keep working."""

import dataclasses
import time
from fractions import Fraction

import pytest

from quantacode import (
    KAPPA_GENERIC,
    FrequencyTable,
    Kappa,
    QuantacodeError,
    best_table_under_width,
    cf_convergents,
    corollary1_width,
    corollary2_width,
    decode_framed,
    encode,
    errors,
    golden_pair,
    lemma1_bound,
    parse_probability_vector,
    plan_precision,
    register_width,
    round_min_max,
    theorem1_bound,
    theorem2_bound_mary,
)

_P3 = parse_probability_vector(["0.7", "0.2", "0.1"])


def _plan():
    return plan_precision(parse_probability_vector(["0.7", "0.3"]), "1e-3")


CASES = {
    "cf-x-outside": lambda: cf_convergents(Fraction(3, 2), 5),
    "cf-max-q": lambda: cf_convergents(Fraction(1, 2), 0),
    "register-width": lambda: register_width(1),
    "kappa-square": lambda: Kappa("quarter", Fraction(1, 4)),
    "table-order": lambda: FrequencyTable((1, 3), (0, 0)),
    "parse-empty": lambda: FrequencyTable.parse_text("# only a comment\n"),
    "parse-header": lambda: FrequencyTable.parse_text("2 4\n1 1 1\n0 3 4\n"),
    "parse-not-int": lambda: FrequencyTable.parse_text("2 4 two\n1 1 1\n0 3 4\n"),
    "parse-count": lambda: FrequencyTable.parse_text("3 4 2\n1 1 1\n0 3 4\n"),
    "parse-line": lambda: FrequencyTable.parse_text("2 4 2\n1 1\n0 3 4\n"),
    "parse-symbol": lambda: FrequencyTable.parse_text("2 4 2\n5 1 1\n0 3 4\n"),
    "parse-cumsum": lambda: FrequencyTable.parse_text("2 4 2\n1 1 2\n0 3 4\n"),
    "parse-end": lambda: FrequencyTable.parse_text("2 5 2\n1 1 1\n0 3 4\n"),
    "table-width": lambda: FrequencyTable.parse_text("2 4 3\n1 1 1\n0 3 4\n"),
    "plan-divergence": lambda: dataclasses.replace(
        _plan(), verified_divergence=_plan().target_r * 2),
    # W = 9 lies within corollary 1's 10 bits but above the second-order 7
    "width-negative": lambda: best_table_under_width(_P3, -1),
    "plan-width": lambda: dataclasses.replace(
        _plan(), table=round_min_max(parse_probability_vector(["0.7", "0.3"]), 1 << 9)),
    # one raise of each class, named after it
    "NonPositiveProbability": lambda: parse_probability_vector(["0.5", "-0.5"]),
    "SumOutOfTolerance": lambda: parse_probability_vector(["0.5", "0.6"]),
    "AlphabetTooSmall": lambda: FrequencyTable((4,), (0,)),
    "DimensionMismatch": lambda: FrequencyTable.from_freqs(_P3, [1, 2]),
    "DenominatorTooSmall": lambda: round_min_max(_P3, 2),
    "InstanceTooLarge": lambda: best_table_under_width(_P3, 25),
    # refused before any 2**W is built
    "width-huge": lambda: best_table_under_width(_P3, 10**12),
    "WidthTooSmall": lambda: best_table_under_width(_P3, 1),
    "RatioNotLessThanOne": lambda: lemma1_bound(3, Fraction(1, 5), Fraction(1, 10)),
    "PreconditionViolated": lambda: theorem1_bound(3, 2, Fraction(1, 10)),
    "AlphabetNotMary": lambda: theorem2_bound_mary(2, 10, Fraction(1, 10)),
    "NonPositiveTarget": lambda: corollary1_width(3, "0", Fraction(1, 10)),
    "KappaMissing": lambda: corollary2_width(2, "1e-3", Fraction(1, 10)),
    "ZeroFrequency": lambda: FrequencyTable((1, 0), (1, 0)),
    "TableTooWide": lambda: encode([0], FrequencyTable((1, 1 << 24), (0, 1))),
    "SymbolOutOfRange": lambda: encode([3], round_min_max(_P3, 10)),
    "CorruptStream": lambda: decode_framed(b"NOPE" + bytes(32)),
    "InvalidArgument": lambda: corollary2_width(3, "1e-3", Fraction(1, 10),
                                                KAPPA_GENERIC),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_quantacode_value_error(case):
    with pytest.raises(QuantacodeError) as exc:
        CASES[case]()
    assert isinstance(exc.value, ValueError)
    if case[0].isupper():
        assert type(exc.value).__name__ == case


def test_every_bad_input_class_has_a_case():
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.InvalidArgument)}
    assert classes == {case for case in CASES if case[0].isupper()}


def test_huge_binary_width_gives_the_exact_table():
    # the continued fraction ends at the exact table t = d, so no 2**W is built
    pair = parse_probability_vector(["0.7", "0.3"])
    assert best_table_under_width(pair, 10**12).t == 10
    golden = golden_pair()
    table = best_table_under_width(golden, 10**12)
    assert table.t == golden.common_denominator
    assert table.freqs == tuple(golden.numerators)


def test_huge_exponent_is_refused_at_once():
    # Fraction("1e-10000000") builds 10**10000000 (about 16 s) before the
    # sum check; the exponent is refused as the plain decimal's digits are
    start = time.perf_counter()
    with pytest.raises(errors.NonPositiveProbability, match="exponent"):
        parse_probability_vector(["1e-10000000", "0.5"])
    assert time.perf_counter() - start < 1
    # Python's default integer-string limit is 4,300 digits
    assert parse_probability_vector(["1e-4300", "0.5", "0.5"]).m == 3
    with pytest.raises(errors.NonPositiveProbability, match="exponent above 4300"):
        parse_probability_vector(["1e-4301", "0.5", "0.5"])
