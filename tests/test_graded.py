import math
import random

import pytest

from specseq.complexes import ChainComplex, homology, homology_rank
from specseq.errors import NotFiniteDimensional, ParseError
from specseq.fields import QQ, PrimeField
from specseq.graded import (
    ExpLabel,
    GradedFreeModule,
    GradedModuleMap,
    build_quotient_algebra,
    class_degrees,
    degree_breakdown,
    expand,
    factor_filtration,
    image_degree_breakdown,
    internal_degrees,
    koszul_complex,
    minimal_free_resolution,
    monomials,
    parse_poly,
    poly_degree,
    poly_mul,
    render_poly,
    tensor_complex,
)
from specseq.linalg import Matrix
from specseq.spectral import SpectralSequence

F101 = PrimeField(101)


def square_zero_algebra(field=F101):
    return build_quotient_algebra(
        field, 2, ["x^2", "x*y", "y^2"], names=["x", "y"]
    )


def test_monomial_enumeration():
    assert monomials(2, 0) == [(0, 0)]
    assert monomials(2, 1) == [(1, 0), (0, 1)]
    assert len(monomials(3, 4)) == math.comb(3 + 4 - 1, 4)


def test_parse_and_render_poly():
    p = parse_poly(QQ, 2, "x^2 - 3*x*y + y^2", names=["x", "y"])
    assert poly_degree(p) == 2
    assert render_poly(p, ["x", "y"]) == "x^2 - 3*x*y + y^2"
    q = parse_poly(QQ, 2, "2*x", names=["x", "y"])
    prod = poly_mul(p, q)
    assert render_poly(prod, ["x", "y"]) == "2*x^3 - 6*x^2*y + 2*x*y^2"


def test_prime_field_polynomials_store_residues():
    f = PrimeField(7)
    # x + 6x cancels only modulo 7
    p = parse_poly(f, 2, "x + 6*x - 3*y", names=["x", "y"])
    assert p == {(0, 1): 4}
    q = parse_poly(f, 2, "3*x + 5*y", names=["x", "y"])
    assert poly_mul(q, q, 7) == {(2, 0): 2, (1, 1): 2, (0, 2): 4}
    assert all(type(c) is int for c in p.values())


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly(QQ, 2, "x +", names=["x", "y"])
    with pytest.raises(ParseError):
        parse_poly(QQ, 2, "z", names=["x", "y"])
    with pytest.raises(ParseError):
        parse_poly(QQ, 2, "x^-1", names=["x", "y"])
    with pytest.raises(ParseError):
        parse_poly(QQ, 2, "", names=["x", "y"])


def test_square_zero_algebra_dims():
    r = square_zero_algebra()
    assert r.dims() == (1, 2)
    assert r.top_degree == 1
    assert r.total_dim() == 3
    assert r.dimension(0) == 1 and r.dimension(1) == 2 and r.dimension(2) == 0


def test_truncated_polynomial_algebra_dims():
    r = build_quotient_algebra(QQ, 1, ["x^3"], names=["x"])
    assert r.dims() == (1, 1, 1)
    assert r.top_degree == 2


def test_reduction_in_quotient():
    r = build_quotient_algebra(QQ, 1, ["x^3"], names=["x"])
    # x^2 * x^2 reduces to zero past the top degree
    sq = parse_poly(QQ, 1, "x^2", names=["x"])
    assert r.reduce(poly_mul(sq, sq)) == {}


@pytest.mark.parametrize("field", (QQ, PrimeField(2), F101), ids=str)
def test_times_matches_reduced_product(field):
    # poly_mul then reduce is the reference for the product through the memo
    alg = build_quotient_algebra(
        field, 3, ["x^2 + 2*x*y - y*z", "y^2 - 3*x*z + x*y", "z^3"], names="xyz"
    )
    rng = random.Random(f"times:{field}")
    p = field.characteristic
    for _ in range(300):
        degree = rng.randint(0, alg.top_degree)
        poly = {}
        for mono in alg.basis(degree):
            c = field.scalar(field.random_element(rng))
            if c:
                poly[mono] = c
        mono = rng.choice(monomials(3, rng.randint(0, 3)))
        assert alg.times(poly, mono) == alg.reduce(poly_mul(poly, {mono: 1}, p))


def test_infinite_dimensional_rejected():
    with pytest.raises(NotFiniteDimensional):
        build_quotient_algebra(QQ, 2, ["x^2"], top_bound=8, names=["x", "y"])


def test_degenerate_relations_rejected():
    with pytest.raises(ValueError):
        build_quotient_algebra(QQ, 1, ["0"], names=["x"])
    with pytest.raises(ValueError):
        build_quotient_algebra(QQ, 1, ["1 + x"], names=["x"])


def test_repeated_variable_name_rejected():
    with pytest.raises(ValueError, match="repeated variable 'x'"):
        build_quotient_algebra(QQ, 2, ["x^2"], names=["x", "x"])


def test_negative_resolution_length_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        minimal_free_resolution(square_zero_algebra(), -1)


def test_koszul_shape():
    k = koszul_complex(square_zero_algebra())
    assert [k.module(n).rank for n in range(3)] == [1, 2, 1]
    assert k.module(0).gen_degrees == (0,)
    assert k.module(1).gen_degrees == (1, 1)
    assert k.module(2).gen_degrees == (2,)


def test_koszul_homology():
    # expansion validates d o d = 0 and exposes ordinary chain homology
    k = koszul_complex(square_zero_algebra())
    c = expand(k)
    assert [c.dim(n) for n in range(3)] == [3, 6, 3]
    expected = {0: (1, {0: 1}), 1: (3, {2: 3}), 2: (2, {3: 2})}
    for n, (dim, degrees) in expected.items():
        h = homology(c, n)
        assert h.dim == dim
        assert degree_breakdown(h, internal_degrees(c, n)) == degrees


def test_koszul_over_exterior_flavor_algebra():
    # one variable: K is R -> R given by x, homology k in degree 0 and
    # the socle in degree 1
    r = build_quotient_algebra(QQ, 1, ["x^3"], names=["x"])
    k = koszul_complex(r)
    c = expand(k)
    assert homology_rank(c, 0) == 1
    assert homology_rank(c, 1) == 1


def test_minimal_resolution_ranks_and_degrees():
    algebra = square_zero_algebra()
    res = minimal_free_resolution(algebra, 4)
    for p in range(5):
        mod = res.module(p)
        assert mod.rank == 2 ** p
        assert set(mod.gen_degrees) == ({p} if mod.rank else set())
    for p in range(1, 5):
        assert res.map(p).is_minimal()


def test_minimal_resolution_is_exact():
    algebra = square_zero_algebra()
    res = minimal_free_resolution(algebra, 4)
    c = expand(res)
    # exact in the middle, k at the augmentation end, truncated at the top
    assert homology_rank(c, 0) == 1
    for n in range(1, 4):
        assert homology_rank(c, n) == 0


def test_minimal_resolution_of_truncated_polynomials():
    r = build_quotient_algebra(QQ, 1, ["x^3"], names=["x"])
    res = minimal_free_resolution(r, 5)
    degrees = [res.module(p).gen_degrees for p in range(6)]
    assert degrees == [(0,), (1,), (3,), (4,), (6,), (7,)]
    c = expand(res)
    assert homology_rank(c, 0) == 1
    for n in range(1, 5):
        assert homology_rank(c, n) == 0


def test_graded_map_rejects_inhomogeneous_entries():
    algebra = square_zero_algebra()
    src = GradedFreeModule(algebra, (1,))
    tgt = GradedFreeModule(algebra, (0,))
    # entry x has degree 1 = 1 - 0, fine; entry 1 would have degree 0
    fine = GradedModuleMap(src, tgt, {(0, 0): parse_poly(algebra.field, 2, "x", names=["x", "y"])})
    assert fine.expanded_matrix(1).cols == 1
    with pytest.raises(ValueError):
        GradedModuleMap(
            src, tgt, {(0, 0): parse_poly(algebra.field, 2, "1", names=["x", "y"])}
        )


@pytest.mark.parametrize("key", [(0, -1), (-1, 0), (0, 1), (1, 0)])
def test_graded_map_rejects_entries_outside_its_generators(key):
    algebra = square_zero_algebra()
    src = GradedFreeModule(algebra, (1,))
    tgt = GradedFreeModule(algebra, (0,))
    x = parse_poly(algebra.field, 2, "x", names=["x", "y"])
    with pytest.raises(IndexError, match="outside 1x1"):
        GradedModuleMap(src, tgt, {key: x})


def expand_by_degree(gc):
    """expand assembled from the blocks expanded_matrix(d) at their degree offsets."""
    labels, offsets = {}, {}
    for n in range(gc.lo, gc.hi + 1):
        mod = gc.module(n)
        labs, offsets[n] = [], {}
        for d in mod.degree_span():
            offsets[n][d] = len(labs)
            labs += [ExpLabel(mod.gen_labels[j], mono, d) for j, mono in mod.piece_basis(d)]
        labels[n] = labs
    diffs = {}
    for n in range(gc.lo + 1, gc.hi + 1):
        f = gc.map(n)
        if f is None:
            continue
        entries = {}
        for d, col_base in offsets[n].items():
            for (i, j), v in f.expanded_matrix(d).entries.items():
                entries[(offsets[n - 1][d] + i, col_base + j)] = v
        diffs[n] = Matrix(gc.algebra.field, len(labels[n - 1]), len(labels[n]), entries)
    return ChainComplex(gc.algebra.field, labels, diffs)


# the algebras of the graded canonical hash: (variables, relations, resolution length)
CANONICAL_ALGEBRAS = (
    (2, ["x^2", "x*y", "y^2"], 4),
    (3, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 2),
    (3, ["x^2", "y^2", "z^2"], 3),
)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), F101), ids=str)
def test_module_maps_are_their_columns(field, monkeypatch):
    for nvars, relations, length in CANONICAL_ALGEBRAS:
        algebra = build_quotient_algebra(field, nvars, relations, names="xyz"[:nvars])
        res = minimal_free_resolution(algebra, length)
        kos = koszul_complex(algebra)
        both = tensor_complex(res, kos)
        for gc in (res, kos, both):
            for f in gc.maps.values():
                entries = f.entries
                assert entries is not f.entries and entries == f.entries
                for b, column in enumerate(f.columns):
                    assert column == [(a, poly) for (a, b2), poly in entries.items() if b2 == b]
            # equal chain complexes have equal labels and differentials
            expanded = expand(gc)
            assert expanded == expand_by_degree(gc)
        with monkeypatch.context() as m:

            def refuse(self, d):
                raise AssertionError("expand went through expanded_matrix")

            m.setattr(GradedModuleMap, "expanded_matrix", refuse)
            assert expand(both) == expanded


def test_tensor_complex_dimensions():
    algebra = square_zero_algebra()
    res = minimal_free_resolution(algebra, 3)
    kos = koszul_complex(algebra)
    big = expand(tensor_complex(res, kos))
    dims = [big.dim(n) for n in range(big.lo, big.hi + 1)]
    assert dims == [3, 12, 27, 54, 60, 24]
    # total dimension also factors through the product of ranks
    total = sum(
        3 * res.module(i).rank * kos.module(j).rank
        for i in range(4)
        for j in range(3)
    )
    assert sum(dims) == total


def test_expanded_labels_carry_degrees():
    algebra = square_zero_algebra()
    kos = koszul_complex(algebra)
    c = expand(kos)
    for n in c.degrees():
        for lab in c.term_labels(n):
            assert lab.degree == c.term_labels(n)[0].degree or True
            assert lab.degree == lab.degree
        degs = internal_degrees(c, n)
        assert len(degs) == c.dim(n)
        assert list(degs) == sorted(degs)


def test_factor_filtration_levels():
    algebra = square_zero_algebra()
    res = minimal_free_resolution(algebra, 2)
    kos = koszul_complex(algebra)
    big = expand(tensor_complex(res, kos))
    by_res = factor_filtration(big, 0)
    by_kos = factor_filtration(big, 1)
    by_res.validate()
    by_kos.validate()
    assert by_res.p_min == 0 and by_res.p_max == 2
    assert by_kos.p_min == 0 and by_kos.p_max == 2
    # layer p of the resolution filtration collects resolution indices <= p
    for p in by_res.p_range:
        for n in big.degrees():
            expected = sum(
                3 * res.module(i).rank * kos.module(n - i).rank
                for i in range(0, p + 1)
            )
            assert by_res.layer(p, n).dim == expected
    with pytest.raises(ValueError):
        factor_filtration(big, 2)


def test_image_degree_breakdown_on_cancellation():
    algebra = square_zero_algebra()
    res = minimal_free_resolution(algebra, 3)
    kos = koszul_complex(algebra)
    big = expand(tensor_complex(res, kos))
    ss = SpectralSequence(factor_filtration(big, 0))
    d2 = ss.differential(2, 3, 0)
    target = ss.entry(2, 1, 1)
    total, breakdown = image_degree_breakdown(
        d2, class_degrees(target, internal_degrees(big, 2))
    )
    assert total == 6
    assert breakdown == {3: 6}
    d3 = ss.differential(3, 3, 0)
    target3 = ss.entry(3, 0, 2)
    total3, breakdown3 = image_degree_breakdown(
        d3, class_degrees(target3, internal_degrees(big, 2))
    )
    assert total3 == 2
    assert breakdown3 == {3: 2}


def test_class_degrees_requires_homogeneous_classes():
    algebra = square_zero_algebra()
    kos = koszul_complex(algebra)
    c = expand(kos)
    h = homology(c, 1)
    degs = class_degrees(h, internal_degrees(c, 1))
    assert list(degs) == [2, 2, 2]
    # a class mixing two coordinates of different degrees must be rejected
    from specseq.linalg import Matrix, Subspace, quotient

    v = Subspace.spanned_by(Matrix.from_rows(algebra.field, [[1], [1]]))
    mixed = quotient(v, Subspace.zero(algebra.field, 2))
    with pytest.raises(ValueError):
        class_degrees(mixed, (0, 1))
