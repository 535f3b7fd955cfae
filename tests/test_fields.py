import time

import pytest

from wlpa import FieldError, field_from_name
from wlpa.fields import PRIMALITY_BOUND, _is_prime


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
