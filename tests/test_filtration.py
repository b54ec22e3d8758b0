import random
from itertools import permutations

import pytest

from specseq import filtration, simplicial
from specseq.complexes import ChainComplex, ChainMap, shift
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
from test_spectral import FIELDS, change_of_basis

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


@pytest.mark.parametrize("field", FIELDS)
def test_fresh_columns_span_the_layers_and_layer_reads_one_table(field):
    rng = random.Random(43)
    for _ in range(8):
        fc, _ = random_filtered_complex(field, rng, top_degree=3, max_dim=5)
        for case in (fc, change_of_basis(fc, rng)):
            amb = case.ambient
            for n in amb.degrees():
                window = range(case.p_min - 1, case.p_max + 1)
                fresh = case.fresh_columns(n)
                assert len(fresh) == len(window)
                cols = []
                for p, new in zip(window, fresh):
                    cols += new
                    lay = case.layer(p, n)
                    assert len(cols) == lay.dim
                    assert Subspace.spanned_by_columns(field, amb.dim(n), cols) == lay
                for p in (case.p_max + 1, case.p_max + 9):
                    assert case.layer(p, n) is case.layer(case.p_max, n)
                for p in (case.p_min - 2, case.p_min - 9):
                    assert case.layer(p, n) is case.layer(case.p_min - 1, n)
            # degrees outside the ambient share one zero space of k^0
            outside = case.layer(case.p_max, amb.hi + 1)
            assert outside.ambient_dim == 0
            assert case.layer(case.p_min - 1, amb.lo - 1) is outside


def test_from_basis_levels_requires_matching_lengths():
    c = interval()
    with pytest.raises(ValueError):
        from_basis_levels(c, {0: [0], 1: [0]})


@pytest.mark.parametrize("field", (QQ, F101), ids=str)
def test_from_basis_levels_shares_one_unit_column_per_basis_vector(field):
    rng = random.Random(59)
    for _ in range(10):
        fc, levels = random_filtered_complex(field, rng)
        for n, lvls in levels.items():
            held = {}
            for p in range(fc.p_min - 1, fc.p_max + 1):
                rows = [k for k, lv in enumerate(lvls) if lv <= p]
                layer = fc.layer(p, n)
                assert layer == Subspace.coordinate(field, fc.ambient.dim(n), rows)
                for k, col in zip(rows, layer.basis_columns):
                    assert held.setdefault(k, col) is col


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


def three_levels(c, per_degree):
    """Layers p = 0, 1, 2 of c: per_degree[n] lists the row vectors spanning
    layers 0 and 1 in degree n; layer 2 is full."""
    layers = {2: {n: Subspace.full(QQ, c.dim(n)) for n in c.degrees()}}
    for p in (0, 1):
        layers[p] = {
            n: Subspace.spanned_by_columns(
                QQ, c.dim(n), [{i: v for i, v in enumerate(row) if v} for row in rows[p]]
            )
            for n, rows in per_degree.items()
        }
    return layers


def test_validate_reports_the_middle_layer():
    square = ChainComplex(
        QQ, {0: ("a", "b"), 1: ("u", "v")}, {1: Matrix.from_rows(QQ, [[0, 0], [1, -1]])}
    )
    interval_c = interval()
    cases = [
        # layer 1 misses layer 0 in degree 0
        (square, {0: ([[0, 1]], [[1, 0]]), 1: ([], [])}, NotNested,
         "layer (0, 0) not inside layer (1, 0)"),
        # the fresh column ab of layer 1 has d(ab) = b - a outside span(a)
        (interval_c, {0: ([], [[1, 0]]), 1: ([], [[1]])}, ValueError,
         "layer (1, 1) is not closed under the differential"),
        # u + v is closed at layer 0; at layer 1 the basis column u keeps the
        # pivot row of u + v, and d(u) = b, like d(v) = -b, is outside span(a)
        (square, {0: ([], [[1, 0]]), 1: ([[1, 1]], [[1, 0], [0, 1]])}, ValueError,
         "layer (1, 1) is not closed under the differential"),
    ]
    for c, per_degree, error, message in cases:
        with pytest.raises(error) as info:
            FilteredComplex(c, three_levels(c, per_degree))
        assert str(info.value) == message


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
    with pytest.raises(NotNested, match=r"^layer \(0, 0\) not inside layer \(1, 0\)$"):
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


def test_truncation_is_the_coordinate_filtration_by_degree():
    rng = random.Random(47)
    for s in (-3, -1, 0, 2):
        c = shift(random_chain_complex(QQ, rng, top_degree=3, max_dim=4), s)
        full, zero = Subspace.full, Subspace.zero
        hand_built = {
            p: {n: (full if n <= p else zero)(QQ, c.dim(n)) for n in c.degrees()}
            for p in range(c.lo, c.hi + 1)
        }
        assert truncation_filtration(c) == FilteredComplex(c, hand_built)
    empty = truncation_filtration(ChainComplex(QQ, {}))
    assert (empty.p_min, empty.p_max) == (0, 0)
    assert empty.layer(0, 0).is_zero and empty.layer(0, 0).ambient_dim == 0


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
