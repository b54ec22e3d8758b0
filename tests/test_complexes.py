import random

import pytest

from specseq.complexes import (
    ChainComplex,
    ChainMap,
    hom_complex,
    homology,
    homology_rank,
    parse_complex,
    render_complex,
    shift,
    tensor,
)
from specseq.errors import NotAComplex
from specseq.fields import QQ, PrimeField
from specseq.linalg import Matrix
from specseq.randomized import random_chain_complex
from specseq.text import Lines

F101 = PrimeField(101)


def circle(field=QQ):
    # hollow triangle: edges ab = b - a, ac = c - a, bc = c - b
    d1 = Matrix.from_rows(field, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return ChainComplex(
        field, {0: ("a", "b", "c"), 1: ("ab", "ac", "bc")}, {1: d1}
    )


def interval(field=QQ):
    d1 = Matrix.from_rows(field, [[-1], [1]])
    return ChainComplex(field, {0: ("a", "b"), 1: ("ab",)}, {1: d1})


def point(field=QQ):
    return ChainComplex(field, {0: ("pt",)})


def test_basic_accessors():
    c = circle()
    assert c.lo == 0 and c.hi == 1
    assert c.dim(0) == 3 and c.dim(1) == 3 and c.dim(5) == 0
    assert c.term_labels(1) == ("ab", "ac", "bc")
    assert c.diff(0).is_zero and c.diff(7).is_zero
    assert c.total_dim() == 6
    assert c.euler_characteristic() == 0
    assert not c.is_zero


def test_diff_is_one_stored_matrix_per_degree():
    rng = random.Random(5)
    complexes = [circle(), point(F101), ChainComplex(QQ, {}), tensor(circle(), interval())]
    complexes += [shift(random_chain_complex(f, rng), -2) for f in (QQ, F101) for _ in range(5)]
    for c in complexes:
        for n in range(c.lo - 2, c.hi + 4):
            d = c.diff(n)
            assert d is c.diff(n)
            assert (d.field, d.rows, d.cols) == (c.field, c.dim(n - 1), c.dim(n))


def test_rejects_non_complex():
    d2 = Matrix.from_rows(QQ, [[1], [0], [0]])
    with pytest.raises(NotAComplex):
        ChainComplex(
            QQ,
            {0: ("a", "b"), 1: ("e", "f", "g"), 2: ("s",)},
            {1: Matrix.from_rows(QQ, [[-1, -1, 0], [1, 1, 0]]), 2: d2},
        )


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ChainComplex(QQ, {0: ("a", "a")})


def test_circle_homology():
    c = circle()
    assert homology_rank(c, 0) == 1
    assert homology_rank(c, 1) == 1
    assert homology_rank(c, 2) == 0
    # the 1-cycle is ab - ac + bc
    h1 = homology(c, 1)
    coords = h1.coordinates({0: QQ.element(1), 1: QQ.element(-1), 2: QQ.element(1)})
    assert any(coords)


def test_interval_homology():
    c = interval()
    assert homology_rank(c, 0) == 1
    assert homology_rank(c, 1) == 0


def test_shift():
    c = circle()
    s = shift(c, 2)
    assert s.lo == 2 and s.hi == 3
    assert s.dim(2) == 3
    assert homology_rank(s, 3) == 1
    assert s.diff(3) == c.diff(1)
    odd = shift(c, 1)
    assert odd.diff(2) == -c.diff(1)
    back = shift(odd, -1)
    assert back.diff(1) == c.diff(1)


def test_tensor_torus():
    t = tensor(circle(), circle())
    assert [t.dim(n) for n in range(3)] == [9, 18, 9]
    assert homology_rank(t, 0) == 1
    assert homology_rank(t, 1) == 2
    assert homology_rank(t, 2) == 1


def test_tensor_kunneth_random():
    rng = random.Random(7)
    for field in (QQ, F101):
        for _ in range(10):
            a = random_chain_complex(field, rng, top_degree=2, max_dim=3)
            b = random_chain_complex(field, rng, top_degree=2, max_dim=3)
            t = tensor(a, b)
            for n in range(t.lo, t.hi + 1):
                expected = sum(
                    homology_rank(a, i) * homology_rank(b, n - i)
                    for i in range(a.lo, a.hi + 1)
                )
                assert homology_rank(t, n) == expected


def test_tensor_unit():
    c = circle()
    t = tensor(point(), c)
    for n in c.degrees():
        assert t.dim(n) == c.dim(n)
        assert homology_rank(t, n) == homology_rank(c, n)


def test_hom_dualizes():
    # Hom(C, k) has the homology of C in negated degrees over a field
    c = circle()
    h = hom_complex(c, point())
    assert homology_rank(h, 0) == 1
    assert homology_rank(h, -1) == 1
    assert homology_rank(h, 1) == 0


def test_hom_complex_random_euler():
    # Euler characteristics multiply up to the sign pattern of negated degrees
    rng = random.Random(19)
    for _ in range(8):
        a = random_chain_complex(QQ, rng, top_degree=2, max_dim=3)
        b = random_chain_complex(QQ, rng, top_degree=2, max_dim=3)
        h = hom_complex(a, b)
        total = sum(
            homology_rank(h, n) * (1 if n % 2 == 0 else -1)
            for n in range(h.lo, h.hi + 1)
        )
        ea = a.euler_characteristic()
        eb = b.euler_characteristic()
        assert total == ea * eb


def test_hom_with_identity_source():
    c = circle()
    h = hom_complex(point(), c)
    for n in c.degrees():
        assert h.dim(n) == c.dim(n)
        assert homology_rank(h, n) == homology_rank(c, n)


def test_chain_map_validation():
    c = interval()
    ident = ChainMap.identity(c)
    assert ident.component(0) == Matrix.identity(QQ, 2)
    bad = {0: Matrix.from_rows(QQ, [[0, 1], [1, 0]]), 1: Matrix.identity(QQ, 1)}
    with pytest.raises(NotAComplex):
        ChainMap(c, c, bad)


def test_chain_map_commutes_with_flip():
    c = interval()
    # swapping the endpoints and negating the edge is a chain map
    flip = ChainMap(
        c,
        c,
        {0: Matrix.from_rows(QQ, [[0, 1], [1, 0]]), 1: Matrix.from_rows(QQ, [[-1]])},
    )
    assert flip.component(1).entry(0, 0) == QQ.element(-1)


def test_render_parse_round_trip():
    rng = random.Random(29)
    for field in (QQ, F101):
        for _ in range(8):
            c = random_chain_complex(field, rng, top_degree=3, max_dim=4)
            text = render_complex(c)
            lines = Lines(text)
            parsed = parse_complex(lines)
            assert lines.done
            assert render_complex(parsed) == text
            for n in c.degrees():
                assert parsed.dim(n) == c.dim(n)
                assert parsed.diff(n) == c.diff(n)
