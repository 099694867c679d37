"""Every library raise on bad input is a QuantacodeError that is still a
ValueError, so `except ValueError` callers keep working."""

import dataclasses
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
