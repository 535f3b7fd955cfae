import time
from fractions import Fraction

import pytest

from wlpa import RATIONALS, FieldError, PrimeField, Rationals, field_from_name
from wlpa.fields import PRIMALITY_BOUND, ModInt, _is_prime


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)]


def test_large_prime_modulus_accepted_quickly():
    start = time.perf_counter()
    field = field_from_name("mod:2305843009213693951")  # 2^61 - 1
    assert time.perf_counter() - start < 0.1
    assert field.p == 2 ** 61 - 1


@pytest.mark.parametrize("n", [561, 2047, 3215031751])  # pseudoprimes to small bases
def test_composite_modulus_rejected(n):
    with pytest.raises(FieldError, match="not prime"):
        field_from_name(f"mod:{n}")


def test_modulus_at_the_primality_bound_rejected():
    # the bound passes all 13 bases, so it is refused before the test
    with pytest.raises(FieldError, match="too large"):
        field_from_name(f"mod:{PRIMALITY_BOUND}")


def test_unknown_field_name_rejected():
    with pytest.raises(FieldError, match="^bad field spec 'real'$"):
        field_from_name("real")


def test_residue_division_by_zero_rejected():
    with pytest.raises(FieldError, match="^division by zero$"):
        field_from_name("mod:7").parse("3/7")


def test_fields_and_residues_are_values():
    assert {field_from_name("rational"), Rationals()} == {RATIONALS}
    assert {field_from_name("mod:7"), PrimeField(7)} == {PrimeField(7)} != {PrimeField(5)}
    assert (repr(RATIONALS), repr(PrimeField(7))) == ("Rationals()", "PrimeField(7)")
    assert {ModInt(10, 7), ModInt(3, 7)} == {ModInt(3, 7)}
    assert ModInt(3, 7) != ModInt(3, 5) and repr(ModInt(10, 7)) == "ModInt(3, 7)"
    assert not ModInt(7, 7) and ModInt(8, 7)
    with pytest.raises(FieldError, match="^mixed scalar types$"):
        ModInt(1, 7) * ModInt(1, 5)


@pytest.mark.parametrize("field", ["rational", "mod:7"])
@pytest.mark.parametrize("text", [" 1_0 ", "1_0", " 1", "1 ", "٢", "-3/-2", "3/-2", "+3",
                                  "--3", "-", "", "3/", "/2", "1/2/3", "0x10", "1e3"])
def test_scalar_literal_outside_the_grammar_rejected(field, text):
    with pytest.raises(FieldError):
        field_from_name(field).parse(text)


@pytest.mark.parametrize("field", ["rational", "mod:7"])
@pytest.mark.parametrize("text, value", [("3", 3), ("-3", -3), ("007", 7), ("6/4", Fraction(3, 2)),
                                         ("-6/4", Fraction(-3, 2)), ("0/5", 0)])
def test_scalar_literal_read_alike_in_both_fields(field, text, value):
    value = Fraction(value)
    if field == "rational":
        expected = value
    else:
        expected = ModInt(value.numerator * pow(value.denominator, -1, 7), 7)
    assert field_from_name(field).parse(text) == expected


def test_rational_literal_keeps_its_decimal_form():
    assert field_from_name("rational").parse("-1.25") == Fraction(-5, 4)
    for text in ("1.", ".5", "1.2.3", "1.5/2", "1/2.5"):
        with pytest.raises(FieldError):
            field_from_name("rational").parse(text)
    with pytest.raises(FieldError):
        field_from_name("mod:7").parse("1.25")
