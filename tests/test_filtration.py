import random
from itertools import permutations

import pytest

from specseq import filtration, simplicial
from specseq.complexes import ChainComplex, ChainMap
from specseq.errors import NotASubcomplex, NotNested
from specseq.fields import QQ, PrimeField
from specseq.filtration import (
    FilteredComplex,
    from_basis_levels,
    from_chain_maps,
    from_simplicial,
    hom_filtration,
    parse_filtered,
    render_filtered,
    tensor_filtration,
    truncation_filtration,
)
from specseq.linalg import Matrix, Subspace
from specseq.randomized import random_chain_complex, random_filtered_complex
from specseq.simplicial import SimplicialComplex, inclusion_map, reduced_chain_complex
from specseq.text import Lines

F101 = PrimeField(101)


def interval(field=QQ):
    d1 = Matrix.from_rows(field, [[-1], [1]])
    return ChainComplex(field, {0: ("a", "b"), 1: ("ab",)}, {1: d1})


def nested_triple():
    big = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    mid = SimplicialComplex(["x", "y", "w"], [["x", "y"], ["w"]])
    small = SimplicialComplex(["x", "w"], [["x"], ["w"]])
    return big, mid, small


def test_layer_clamping():
    c = interval()
    levels = {0: [0, 1], 1: [1]}
    fc = from_basis_levels(c, levels)
    assert fc.p_min == 0 and fc.p_max == 1
    assert fc.layer(5, 0).is_full
    assert fc.layer(-1, 0).is_zero
    assert fc.layer(0, 1).is_zero
    assert fc.layer(0, 0).dim == 1


def test_from_basis_levels_requires_matching_lengths():
    c = interval()
    with pytest.raises(ValueError):
        from_basis_levels(c, {0: [0], 1: [0]})


def test_validate_rejects_unclosed_layers():
    c = interval()
    # span(a) alone is not closed: d(ab) = b - a needs both vertices
    layers = {
        0: {0: Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0]])), 1: Subspace.full(QQ, 1)},
        1: {0: Subspace.full(QQ, 2), 1: Subspace.full(QQ, 1)},
    }
    with pytest.raises(ValueError):
        FilteredComplex(c, layers)


def test_validate_rejects_non_nested_layers():
    c = ChainComplex(QQ, {0: ("a", "b")})
    layers = {
        0: {0: Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0]]))},
        1: {0: Subspace.spanned_by(Matrix.from_rows(QQ, [[0], [1]]))},
        2: {0: Subspace.full(QQ, 2)},
    }
    with pytest.raises(NotNested):
        FilteredComplex(c, layers)


def test_validate_requires_full_top():
    c = ChainComplex(QQ, {0: ("a", "b")})
    layers = {0: {0: Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0]]))}}
    with pytest.raises(ValueError):
        FilteredComplex(c, layers)


def test_from_chain_maps_inclusion_chain():
    big, mid, small = nested_triple()
    amb = None
    f_mid = inclusion_map(mid, big, QQ)
    f_small = inclusion_map(small, big, QQ)
    fc = from_chain_maps([f_mid, f_small])
    # two images plus nothing extra: the bigger image is not all of the target,
    # so an implicit full level appears on top
    assert fc.p_min == 0 and fc.p_max == 2
    assert fc.layer(2, 1).is_full
    assert fc.layer(1, 0).dim == 3  # x, y, w
    assert fc.layer(0, 0).dim == 2  # x, w
    assert fc.layer(0, -1).dim == 1  # the empty face sits in every level
    assert fc.layer(0, 1).dim == 0
    fc.validate()


def test_from_chain_maps_orders_by_size():
    big, mid, small = nested_triple()
    maps = [inclusion_map(small, big, QQ), inclusion_map(mid, big, QQ)]
    fc = from_chain_maps(maps)
    # listing order does not matter, containment does
    assert fc.layer(0, 0).dim == 2
    assert fc.layer(1, 0).dim == 3


def test_from_chain_maps_rejects_incomparable_images():
    c = ChainComplex(QQ, {0: ("a", "b")})
    left = ChainComplex(QQ, {0: ("a",)})
    right = ChainComplex(QQ, {0: ("b",)})
    inc_l = ChainMap(left, c, {0: Matrix.from_rows(QQ, [[1], [0]])})
    inc_r = ChainMap(right, c, {0: Matrix.from_rows(QQ, [[0], [1]])})
    with pytest.raises(NotNested):
        from_chain_maps([inc_l, inc_r])


def test_from_chain_maps_shift():
    big, mid, small = nested_triple()
    fc = from_chain_maps([inclusion_map(mid, big, QQ)], shift=5)
    assert fc.p_min == 5 and fc.p_max == 6


def test_from_simplicial_matches_inclusions():
    big, mid, small = nested_triple()
    fc = from_simplicial([big, mid, small], QQ)
    assert fc.p_min == 0 and fc.p_max == 2
    assert fc.layer(2, 1).is_full
    assert fc.layer(1, 1).dim == 1
    assert fc.layer(0, -1).dim == 1
    fc.validate()


def _simplicial_reference(complexes, field, reduced):
    """from_simplicial as the composition of its parts: one inclusion per entry."""
    maps = [inclusion_map(s, complexes[0], field, reduced=reduced) for s in complexes]
    return from_chain_maps(maps)


def _outcome(build, *args):
    try:
        return build(*args)
    except (NotASubcomplex, NotNested) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
def test_from_simplicial_equals_the_inclusion_images(field, reduced):
    big, mid, small = nested_triple()
    # two subcomplexes of big that are not nested, and a vertex order at odds
    # with big's
    left = SimplicialComplex(["x", "y"], [["x", "y"]])
    right = SimplicialComplex(["z", "w"], [["z", "w"]])
    reordered = SimplicialComplex(["w", "x"], [["w"], ["x"]])
    families = list(permutations([big, mid, small]))
    families += [[big, left, right], [big, mid, reordered], [big, big, small], [small]]
    raised = set()
    for family in families:
        got = _outcome(from_simplicial, list(family), field, reduced)
        want = _outcome(_simplicial_reference, list(family), field, reduced)
        assert got == want
        if isinstance(got, tuple):
            raised.add(got[0])
        else:
            assert got.ambient == reduced_chain_complex(family[0], field, reduced=reduced)
    assert raised == {NotASubcomplex, NotNested}


def test_from_simplicial_builds_one_chain_complex(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduced_chain_complex(*args, **kwargs)

    monkeypatch.setattr(filtration, "reduced_chain_complex", counted)
    monkeypatch.setattr(simplicial, "reduced_chain_complex", counted)
    big, mid, small = nested_triple()
    from_simplicial([big, mid, small, small], QQ, reduced=False)
    assert len(calls) == 1


def test_truncation_layers():
    c = random_chain_complex(QQ, random.Random(3), top_degree=3, max_dim=4)
    fc = truncation_filtration(c)
    for p in fc.p_range:
        for n in c.degrees():
            expected = c.dim(n) if n <= p else 0
            assert fc.layer(p, n).dim == expected
    fc.validate()


def test_tensor_filtration_layer_dims():
    rng = random.Random(9)
    c = random_chain_complex(QQ, rng, top_degree=2, max_dim=3)
    fd, levels = random_filtered_complex(QQ, rng, top_degree=2, max_dim=3)
    fc = tensor_filtration(c, fd)
    fc.validate()
    d = fd.ambient
    for p in fc.p_range:
        for n in range(fc.ambient.lo, fc.ambient.hi + 1):
            expected = sum(
                c.dim(i) * fd.layer(p, n - i).dim for i in range(c.lo, c.hi + 1)
            )
            assert fc.layer(p, n).dim == expected


def test_tensor_filtration_mirrored():
    rng = random.Random(13)
    c = random_chain_complex(QQ, rng, top_degree=2, max_dim=3)
    fd, levels = random_filtered_complex(QQ, rng, top_degree=2, max_dim=3)
    fc = tensor_filtration(fd, c)
    fc.validate()
    for p in fc.p_range:
        for n in range(fc.ambient.lo, fc.ambient.hi + 1):
            expected = sum(
                fd.layer(p, i).dim * c.dim(n - i)
                for i in range(fd.ambient.lo, fd.ambient.hi + 1)
            )
            assert fc.layer(p, n).dim == expected


def test_tensor_filtration_needs_exactly_one_filtered():
    rng = random.Random(17)
    c = random_chain_complex(QQ, rng)
    fd, _ = random_filtered_complex(QQ, rng)
    with pytest.raises(TypeError):
        tensor_filtration(c, c)
    with pytest.raises(TypeError):
        tensor_filtration(fd, fd)


def test_hom_filtration_layer_dims():
    rng = random.Random(21)
    c = random_chain_complex(QQ, rng, top_degree=1, max_dim=2)
    fd, _ = random_filtered_complex(QQ, rng, top_degree=2, max_dim=3)
    fc = hom_filtration(c, fd)
    fc.validate()
    for p in fc.p_range:
        for n in range(fc.ambient.lo, fc.ambient.hi + 1):
            expected = sum(
                c.dim(i) * fd.layer(p, i + n).dim for i in range(c.lo, c.hi + 1)
            )
            assert fc.layer(p, n).dim == expected


def test_render_parse_round_trip():
    rng = random.Random(25)
    for field in (QQ, F101):
        fc, _ = random_filtered_complex(field, rng, top_degree=2, max_dim=4)
        text = render_filtered(fc)
        lines = Lines(text)
        parsed = parse_filtered(lines)
        assert lines.done
        assert parsed.p_min == fc.p_min and parsed.p_max == fc.p_max
        for p in fc.p_range:
            for n in fc.ambient.degrees():
                assert parsed.layer(p, n) == fc.layer(p, n)
        for n in fc.ambient.degrees():
            assert parsed.ambient.diff(n) == fc.ambient.diff(n)
