"""Every library raise on bad input is a QuantacodeError that is still a
ValueError, so `except ValueError` callers keep working."""

import dataclasses
from fractions import Fraction

import pytest

from quantacode import (
    FrequencyTable,
    Kappa,
    QuantacodeError,
    cf_convergents,
    parse_probability_vector,
    plan_precision,
    register_width,
)

def _plan():
    return plan_precision(parse_probability_vector(["0.7", "0.3"]), "1e-3")


CASES = {
    "cf-x-outside": lambda: cf_convergents(Fraction(3, 2), 5),
    "cf-max-q": lambda: cf_convergents(Fraction(1, 2), 0),
    "register-width": lambda: register_width(1),
    "kappa-square": lambda: Kappa("quarter", Fraction(1, 4)),
    "table-t": lambda: FrequencyTable((1, 3), 5, (0, 1), (0, 1), 2),
    "table-order": lambda: FrequencyTable((1, 3), 4, (0, 0), (0, 1), 2),
    "table-cum": lambda: FrequencyTable((1, 3), 4, (0, 1), (0, 2), 2),
    "table-width": lambda: FrequencyTable((1, 3), 4, (0, 1), (0, 1), 3),
    "parse-empty": lambda: FrequencyTable.parse_text("# only a comment\n"),
    "parse-header": lambda: FrequencyTable.parse_text("2 4\n1 1 1\n0 3 4\n"),
    "parse-not-int": lambda: FrequencyTable.parse_text("2 4 two\n1 1 1\n0 3 4\n"),
    "parse-count": lambda: FrequencyTable.parse_text("3 4 2\n1 1 1\n0 3 4\n"),
    "parse-line": lambda: FrequencyTable.parse_text("2 4 2\n1 1\n0 3 4\n"),
    "parse-symbol": lambda: FrequencyTable.parse_text("2 4 2\n5 1 1\n0 3 4\n"),
    "parse-cumsum": lambda: FrequencyTable.parse_text("2 4 2\n1 1 2\n0 3 4\n"),
    "parse-end": lambda: FrequencyTable.parse_text("2 5 2\n1 1 1\n0 3 4\n"),
    "plan-divergence": lambda: dataclasses.replace(
        _plan(), verified_divergence=_plan().target_r * 2),
    "plan-width": lambda: dataclasses.replace(_plan(), width_bits=40),
    "plan-memory": lambda: dataclasses.replace(_plan(), memory_bits=1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_quantacode_value_error(case):
    with pytest.raises(QuantacodeError) as exc:
        CASES[case]()
    assert isinstance(exc.value, ValueError)
