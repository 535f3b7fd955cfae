"""Scalar fields for algebra coefficients: exact rationals and prime fields.

Coefficients are always exact; floating point is never used.  Inside an
element they are plain Python numbers, so one arithmetic path serves every
field: over Q an ``int`` when integral, else a ``Fraction``; over F_p the
residue in ``0 .. p-1``.  A field only says how scalars enter and leave:
``parse`` reads a literal, ``reduce`` brings a plain number to its canonical
form (Z -> F_p is a ring map, so sums and products may be reduced once, at
the end), and ``from_int`` turns a plain number into the field's scalar type
(``Fraction`` or :class:`ModInt`) for output.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import parse_natural


class FieldError(ValueError):
    pass


def _parse_ratio(text: str, decimal: bool = False) -> tuple[int, int]:
    """``[-]a`` or ``[-]a/b``, with ``decimal`` also ``[-]a.d``, as (numerator, denominator).

    Every digit run is read by :func:`parse_natural`, so whitespace, ``_``,
    ``+``, non-ASCII digits and a signed denominator raise ValueError.
    """
    negative = text.startswith("-")
    body = text[1:] if negative else text
    whole, dot, frac = body.partition(".") if decimal else (body, "", "")
    if dot:
        d = 10 ** len(frac)
        n = parse_natural(whole) * d + parse_natural(frac)
    else:
        num, slash, den = body.partition("/")
        n, d = parse_natural(num), parse_natural(den) if slash else 1
    return (-n if negative else n), d


class Rationals:
    """The field of rational numbers, backed by ``fractions.Fraction``."""

    name = "rational"

    def from_int(self, n: int | Fraction) -> Fraction:
        return Fraction(n)

    def reduce(self, x: int | Fraction) -> int | Fraction:
        """``x`` in canonical form: an ``int`` when integral, else the ``Fraction``."""
        return x.numerator if x.denominator == 1 else x

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(*_parse_ratio(text, decimal=True))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def render(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")


class ModInt:
    """An element of Z/pZ.  Arithmetic only combines equal moduli."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _check(self, other) -> "ModInt":
        if not isinstance(other, ModInt) or other.modulus != self.modulus:
            raise FieldError("mixed scalar types")
        return other

    def __mul__(self, other):
        other = self._check(other)
        return ModInt(self.value * other.value, self.modulus)

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise FieldError("division by zero")
        return ModInt(pow(self.value, -1, self.modulus), self.modulus)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (
            isinstance(other, ModInt)
            and other.modulus == self.modulus
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIMALITY_BOUND (Sorenson and Webster 2015); the bound is composite.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime; exact for ``n < PRIMALITY_BOUND``."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field Z/pZ."""

    def __init__(self, p: int):
        if p >= PRIMALITY_BOUND:
            raise FieldError(f"modulus too large: it must be below {PRIMALITY_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"mod:{p}"

    def from_int(self, n: int) -> ModInt:
        return ModInt(n, self.p)

    def reduce(self, n: int) -> int:
        """``n`` in canonical form: its residue in ``0 .. p-1``."""
        return n % self.p

    def parse(self, text: str) -> ModInt:
        # Accept "[-]a" or "[-]a/b" with b invertible mod p.
        try:
            n, d = _parse_ratio(text)
        except ValueError as exc:
            raise FieldError(f"bad scalar literal {text!r}") from exc
        return ModInt(n, self.p) * ModInt(d, self.p).inverse()

    def render(self, x: ModInt) -> str:
        return str(x.value)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("mod", self.p))


RATIONALS = Rationals()


def field_from_name(text: str):
    """Resolve a field flag: ``rational`` or ``mod:<prime>``."""
    if text == "rational":
        return RATIONALS
    if text.startswith("mod:"):
        try:
            p = parse_natural(text[4:])
        except ValueError:
            raise FieldError(f"bad field spec {text!r}") from None
        return PrimeField(p)
    raise FieldError(f"bad field spec {text!r}")
