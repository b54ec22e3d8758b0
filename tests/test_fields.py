import doctest
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import specseq.fields
from specseq.errors import DivisionByZero, MixedFields, ParseError
from specseq.fields import QQ, FieldElement, PrimeField, parse_field_token


def test_rational_literals():
    a = QQ.parse("3/4")
    b = QQ.parse("-2")
    assert QQ.render(a + b) == "-5/4"
    assert QQ.render(a * b) == "-3/2"
    assert QQ.render(a / b) == "-3/8"
    assert QQ.render(a - a) == "0"
    assert QQ.render(-b) == "2"


def test_rational_parse_round_trip():
    for text in ["0", "7", "-7", "22/7", "-22/7", "1/3"]:
        assert QQ.render(QQ.parse(text)) == text


def test_rational_parse_errors():
    with pytest.raises(ParseError):
        QQ.parse("3/0")
    with pytest.raises(ParseError):
        QQ.parse("a/b")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.parse("1") / QQ.parse("0")
    f = PrimeField(7)
    with pytest.raises(DivisionByZero):
        f.parse("1") / f.parse("0")


def test_prime_field_literals():
    f = PrimeField(7)
    assert f.render(f.parse("5") + f.parse("4")) == "2"
    assert f.render(f.parse("3") * f.parse("5")) == "1"
    # 5 * 2 = 10 = 3 mod 7
    assert f.render(f.parse("3") / f.parse("5")) == "2"
    assert f.render(-f.parse("1")) == "6"


def test_prime_field_bounds():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    # 2^61 - 1 is prime but beyond the supported modulus range
    with pytest.raises(ValueError):
        PrimeField(2305843009213693951)
    # the largest supported prime is fine
    assert PrimeField(2147483647).characteristic == 2147483647


def test_element_coercion():
    f = PrimeField(5)
    x = f.element(7)
    assert f.render(x) == "2"
    assert f.element(x) == x
    assert QQ.element(Fraction(1, 2)) == QQ.parse("1/2")
    with pytest.raises(MixedFields):
        f.element(QQ.parse("1"))


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(MixedFields):
        QQ.parse("1") + PrimeField(7).parse("1")


def test_field_tokens():
    assert parse_field_token("QQ") == QQ
    assert parse_field_token("F101") == PrimeField(101)
    assert parse_field_token("F101").token() == "F101"
    assert QQ.token() == "QQ"
    with pytest.raises(ParseError):
        parse_field_token("F6")
    with pytest.raises(ParseError):
        parse_field_token("GF(7)")


def test_field_equality():
    assert PrimeField(13) == PrimeField(13)
    assert PrimeField(13) != PrimeField(11)
    assert QQ != PrimeField(13)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_prime_field_ring_axioms(a, b, c):
    f = PrimeField(13)
    x, y, z = f.element(a), f.element(b), f.element(c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + (y + z) == (x + y) + z
    if b % 13:
        assert (x / y) * y == x


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
def test_rational_field_axioms(a, b):
    x, y = QQ.element(a), QQ.element(b)
    assert x + y == y + x
    assert x * y == y * x
    if b:
        assert (x / y) * y == x


def test_random_element_is_seeded():
    f = PrimeField(101)
    first = [f.random_element(random.Random(9)) for _ in range(10)]
    second = [f.random_element(random.Random(9)) for _ in range(10)]
    assert first == second
    assert any(v for v in first)
    q_vals = [QQ.random_element(random.Random(4)) for _ in range(10)]
    assert any(v for v in q_vals)


def test_elements_accept_raw_scalars_of_their_own_field():
    half = Fraction(1, 2)
    for product in (QQ.element(2) * half, half * QQ.element(2)):
        assert isinstance(product, FieldElement)
        assert product == QQ.one and type(product.value) is int
    assert QQ.element(1) == Fraction(1) and Fraction(1) == QQ.element(1)
    assert QQ.element(1) == 1 and QQ.element(half) != 1
    assert QQ.element(1) - half == half and 1 - QQ.element(half) == half
    assert QQ.element(half) + half == 1 and half + QQ.element(half) == 1
    assert QQ.element(1) / half == 2 and 1 / QQ.element(2) == half
    f = PrimeField(7)
    assert f.element(3) * 5 == 1 and 5 * f.element(3) == 1
    assert f.element(3) == 10 and 10 == f.element(3)
    assert f.element(3) + 4 == 0 and 4 - f.element(3) == 1
    assert 1 / f.element(3) == 5 and f.element(3) / 3 == 1
    # a Fraction is not a scalar of F_7
    assert f.element(1) != Fraction(1)
    with pytest.raises(TypeError):
        f.element(1) * half


def test_mixed_fields_still_raise_with_raw_scalars_around():
    f = PrimeField(7)
    for a, b in ((QQ.element(1), f.element(1)), (f.element(1), QQ.element(1))):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(MixedFields):
                op(a, b)
    with pytest.raises(MixedFields):
        f.scalar(QQ.element(Fraction(1, 2)))
    assert f.scalar(f.element(9)) == 2
    assert type(QQ.scalar(Fraction(4, 2))) is int


def test_fields_module_doctest():
    result = doctest.testmod(specseq.fields)
    assert result.failed == 0
    assert result.attempted > 0
