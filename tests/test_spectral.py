import pathlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from specseq import linalg, spectral
from specseq.complexes import ChainComplex, ChainMap, homology_rank, shift
from specseq.errors import ComparisonFailure, NotASubspace
from specseq.fields import QQ, PrimeField
from specseq.filtration import (
    FilteredComplex,
    from_basis_levels,
    from_chain_maps,
    from_simplicial,
    hom_filtration,
    tensor_filtration,
    truncation_filtration,
)
from specseq.linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    image,
    induced_map,
    intersect,
    kernel,
    preimage,
    quotient,
    rank,
    subspace_sum,
)
from specseq.randomized import random_chain_complex, random_filtered_complex
from specseq.simplicial import SimplicialComplex
from specseq.spectral import SpectralSequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import Barcode, Cell  # noqa: E402

F101 = PrimeField(101)
FIELDS = (QQ, PrimeField(2), F101, PrimeField(2147483647))


def nested_filtration(field=QQ):
    big = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    mid = SimplicialComplex(["x", "y", "w"], [["x", "y"], ["w"]])
    small = SimplicialComplex(["x", "w"], [["x"], ["w"]])
    return from_simplicial([big, mid, small], field)


def test_window_and_stabilization_index():
    ss = SpectralSequence(nested_filtration())
    assert ss.source.p_min == 0 and ss.source.p_max == 2
    assert ss.r_star == 4


def test_cycles_against_raw_linear_algebra():
    # recompute Z^r(2, -1) with direct calls and compare dimensions
    fc = nested_filtration()
    ss = SpectralSequence(fc)
    amb = fc.ambient
    d1 = amb.diff(1)
    for r, expected in [(1, 3), (2, 2), (3, 1)]:
        direct = intersect(fc.layer(2, 1), preimage(d1, fc.layer(2 - r, 0)))
        assert direct.dim == expected
        assert ss.cycles(r, 2, -1).dim == expected


def test_low_page_entries():
    ss = SpectralSequence(nested_filtration())
    for r in (1, 2):
        page = ss.page(r)
        assert page.dims() == {(0, 0): 1, (2, -1): 1}


def test_page_two_differential_is_invertible():
    ss = SpectralSequence(nested_filtration())
    d = ss.differential(2, 2, -1)
    assert d.rows == 1 and d.cols == 1
    assert rank(d) == 1


def test_high_pages_vanish():
    ss = SpectralSequence(nested_filtration())
    assert ss.page(3).dims() == {}
    assert ss.infinity_page().dims() == {}


def test_differentials_outside_window_are_zero():
    ss = SpectralSequence(nested_filtration())
    d = ss.differential(1, 0, 0)
    assert d.is_zero
    big_r = ss.differential(9, 2, -1)
    assert big_r.is_zero


def test_pages_stabilize_at_r_star():
    fc, _ = random_filtered_complex(QQ, random.Random(101))
    ss = SpectralSequence(fc)
    stable = ss.page(ss.r_star)
    later = ss.page(ss.r_star + 3)
    assert stable.dims() == later.dims()
    assert stable.stable and later.stable
    for pos in stable.positions():
        assert stable.entry(*pos).dim == later.entry(*pos).dim


def test_page_map_matches_pointwise_differentials():
    fc, _ = random_filtered_complex(F101, random.Random(55))
    ss = SpectralSequence(fc)
    pm = ss.page_map(1)
    page = ss.page(1)
    for p in fc.p_range:
        for n in fc.ambient.degrees():
            assert pm.matrix(p, n - p) == ss.differential(1, p, n - p)
            assert page.entry(p, n - p) is ss.entry(1, p, n - p)
    # a page and a page map both hold the filtration window and no more
    with pytest.raises(KeyError):
        pm.matrix(fc.p_max + 1, 0)
    with pytest.raises(KeyError):
        page.entry(fc.p_max + 1, 0)


def test_differential_squares_to_zero():
    rng = random.Random(301)
    for field in (QQ, F101):
        for _ in range(6):
            fc, _ = random_filtered_complex(field, rng)
            ss = SpectralSequence(fc)
            for r in range(1, ss.r_star + 1):
                for p in fc.p_range:
                    for n in fc.ambient.degrees():
                        q = n - p
                        first = ss.differential(r, p, q)
                        second = ss.differential(r, p - r, q + r - 1)
                        assert (second @ first).is_zero


def test_turning_identity():
    # dim E^{r+1}(p, q) = dim ker d^r(p, q) - dim im d^r(p + r, q - r + 1)
    rng = random.Random(401)
    for field in (QQ, F101):
        for _ in range(6):
            fc, _ = random_filtered_complex(field, rng)
            ss = SpectralSequence(fc)
            for r in range(1, ss.r_star + 1):
                for p in fc.p_range:
                    for n in fc.ambient.degrees():
                        q = n - p
                        out = ss.differential(r, p, q)
                        arriving = ss.differential(r, p + r, q - r + 1)
                        expected = kernel(out).dim - rank(arriving)
                        assert ss.entry(r + 1, p, q).dim == expected


def test_first_page_is_relative_homology():
    # independent oracle: restrict the differential to the level-p coordinates
    rng = random.Random(501)
    for field in (QQ, F101):
        for _ in range(8):
            fc, levels = random_filtered_complex(field, rng)
            ss = SpectralSequence(fc)
            amb = fc.ambient
            for p in fc.p_range:
                keep = {
                    m: [i for i, lv in enumerate(levels.get(m, [])) if lv == p]
                    for m in amb.degrees()
                }
                labels = {m: tuple(keep[m]) for m in amb.degrees() if keep[m]}
                diffs = {}
                for m in amb.degrees():
                    rows = keep.get(m - 1, [])
                    cols = keep.get(m, [])
                    if not rows or not cols:
                        continue
                    row_pos = {i: a for a, i in enumerate(rows)}
                    col_pos = {j: b for b, j in enumerate(cols)}
                    entries = {}
                    for (i, j), v in amb.diff(m).entries.items():
                        if i in row_pos and j in col_pos:
                            entries[(row_pos[i], col_pos[j])] = v
                    if entries:
                        diffs[m] = Matrix(field, len(rows), len(cols), entries)
                rel = ChainComplex(field, labels, diffs, validate=False)
                for n in amb.degrees():
                    assert ss.entry(1, p, n - p).dim == homology_rank(rel, n)


def test_infinity_totals_match_homology():
    rng = random.Random(601)
    for field in (QQ, F101):
        for _ in range(8):
            fc, _ = random_filtered_complex(field, rng)
            ss = SpectralSequence(fc)
            inf = ss.infinity_page()
            for n in fc.ambient.degrees():
                total = sum(
                    inf.entry(p, n - p).dim for p in fc.p_range
                )
                assert total == homology_rank(fc.ambient, n)


def test_limit_comparison_ok():
    fc, _ = random_filtered_complex(QQ, random.Random(701))
    ss = SpectralSequence(fc)
    report = ss.limit_comparison()
    assert report.ok
    for line in report.render().splitlines():
        assert line.endswith("ok")


def test_limit_comparison_failure_raises():
    class Lying(SpectralSequence):
        def entry(self, r, p, q):
            pres = super().entry(r, p, q)
            if r >= self.r_star and (p, q) == (self._lie_at):
                # misreport one stable entry
                from specseq.linalg import Subspace, quotient

                full = Subspace.full(self.source.ambient.field, pres.ambient_dim)
                return quotient(full, Subspace.zero(full.field, pres.ambient_dim))
            return pres

    fc = nested_filtration()
    ss = Lying(fc)
    ss._lie_at = (1, -1)
    with pytest.raises(ComparisonFailure) as info:
        ss.limit_comparison(strict=True)
    assert not info.value.report.ok
    report = ss.limit_comparison(strict=False)
    assert not report.ok
    assert any(line.endswith("FAIL") for line in report.render().splitlines())


def test_memo_is_thread_safe_and_deterministic():
    fc, _ = random_filtered_complex(F101, random.Random(801))
    sequential = SpectralSequence(fc)
    pages = {r: sequential.page(r).dims() for r in range(1, sequential.r_star + 1)}
    concurrent = SpectralSequence(fc)
    jobs = [
        (r, p, n - p)
        for r in range(1, concurrent.r_star + 1)
        for p in fc.p_range
        for n in fc.ambient.degrees()
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda j: concurrent.entry(*j), jobs))
    for r, dims in pages.items():
        assert concurrent.page(r).dims() == dims


def change_of_basis(fc, rng):
    """An isomorphic copy of fc whose layers are in general not coordinate.

    Each term moves by a random unitriangular g_n = 1 + N_n (N_n strictly
    upper triangular, so g_n^-1 = 1 - N_n + N_n^2 - ...):
    d'_n = g_{n-1} d_n g_n^-1 and layer'(p, n) = g_n(layer(p, n)).
    """
    amb = fc.ambient
    field = amb.field
    g, g_inv = {}, {}
    for n in amb.degrees():
        dim = amb.dim(n)
        one = Matrix.identity(field, dim)
        nil = Matrix(
            field, dim, dim,
            {(i, j): field.random_element(rng) for j in range(dim) for i in range(j)},
        )
        g[n], g_inv[n], power = one + nil, one, one
        for _ in range(dim):
            power = -(power @ nil)
            g_inv[n] = g_inv[n] + power
    labels = {n: amb.term_labels(n) for n in amb.degrees()}
    diffs = {n: g[n - 1] @ amb.diff(n) @ g_inv[n] for n in amb.degrees() if n - 1 in g}
    layers = {
        p: {n: apply_to_subspace(g[n], fc.layer(p, n)) for n in amb.degrees()}
        for p in fc.p_range
    }
    return FilteredComplex(ChainComplex(field, labels, diffs), layers)


def stacked_preimage(m, w):
    """Reference preimage, not built on linalg._cut: m x + w y = 0 exactly
    when m x lies in w, so the kernel of [m | basis of w] projects onto it."""
    stacked = Matrix.from_column_dicts(
        m.field, m.rows, m.column_dicts() + list(w.basis_columns)
    )
    projected = [
        {j: f for j, f in col.items() if j < m.cols} for col in kernel(stacked).basis_columns
    ]
    return Subspace.spanned_by_columns(m.field, m.cols, projected)


def stacked_intersect(a, b):
    """Reference a cap b, not built on linalg._cut: the a-part of each kernel
    vector of [basis of a | basis of b], taken in a."""
    acols = list(a.basis_columns)
    stacked = Matrix.from_column_dicts(a.field, a.ambient_dim, acols + list(b.basis_columns))
    parts = [
        {j: f for j, f in col.items() if j < len(acols)} for col in kernel(stacked).basis_columns
    ]
    basis = Matrix.from_column_dicts(a.field, a.ambient_dim, acols)
    return Subspace.spanned_by_columns(a.field, a.ambient_dim, basis.apply_all(parts))


def assert_cycles_match_stacked_reference(fc):
    ss = SpectralSequence(fc)
    amb = fc.ambient
    for r in range(1, ss.r_star + 1):
        for p in range(fc.p_min - 1, fc.p_max + 2):
            for n in amb.degrees():
                want = stacked_intersect(
                    fc.layer(p, n), stacked_preimage(amb.diff(n), fc.layer(p - r, n - 1))
                )
                got = ss.cycles(r, p, n - p)
                assert got.pivots == want.pivots
                assert got.basis_columns == want.basis_columns


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coordinate_cycles_match_generic_path(field):
    # the generic subspace is recomputed with the stacked-kernel reference
    inputs = [nested_filtration(field)]
    inputs += [random_filtered_complex(field, random.Random(s))[0] for s in range(6)]
    for fc in inputs:
        assert_cycles_match_stacked_reference(fc)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_generic_cycles_on_non_coordinate_layers(field):
    non_coordinate = 0
    fractions = False
    for seed in range(12):
        rng = random.Random(seed)
        fc, _ = random_filtered_complex(field, rng)
        moved = change_of_basis(fc, rng)
        non_coordinate += sum(
            any(len(c) > 1 for c in moved.layer(p, n).basis_columns)
            for p in moved.p_range
            for n in moved.ambient.degrees()
        )
        fractions |= any(
            type(v) is Fraction
            for n in moved.ambient.degrees()
            for v in moved.ambient.diff(n).entries.values()
        )
        assert_cycles_match_stacked_reference(moved)
        ss, ss_moved = SpectralSequence(fc), SpectralSequence(moved)
        for r in range(1, ss.r_star + 1):
            assert ss_moved.page(r).dims() == ss.page(r).dims()
        assert ss_moved.limit_comparison().ok
    assert non_coordinate
    assert fractions == (field is QQ)


def level_barcode(fc, levels):
    """The barcode oracle's bars of a coordinate filtration, given the level
    of each basis vector as random_filtered_complex returns them."""
    amb = fc.ambient
    index, cells = {}, []
    for n in amb.degrees():
        for k in range(amb.dim(n)):
            index[(n, k)] = len(cells)
            cells.append(Cell(n, levels[n][k]))
    boundary = [{} for _ in cells]
    for n in amb.degrees():
        for (i, j), v in amb.diff(n).entries.items():
            boundary[index[(n, j)]][index[(n - 1, i)]] = v
    return Barcode(cells, boundary, amb.field.characteristic or None)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pages_and_limit_match_barcode_oracle(field):
    # the barcode oracle shares no code with linalg or spectral, so it checks
    # the cycle spaces, the persistence reductions and the limit comparison
    for seed in range(25):
        fc, levels = random_filtered_complex(field, random.Random(f"oracle:{seed}"))
        bars = level_barcode(fc, levels)
        ss = SpectralSequence(fc)
        assert ss.r_star == bars.r_star
        for r in range(1, ss.r_star + 1):
            assert ss.page(r).dims() == bars.page_dims(r), (seed, r)
        for n, p, einf, gr, ok in ss.limit_comparison().rows:
            assert gr == bars.graded_homology(n, p), (seed, n, p)


def reference_graded_homology(fc):
    """Rows (n, p, gr_p H_n) with gr_p H_n = dim(ker cap layer(p) + im) -
    dim(ker cap layer(p - 1) + im), from kernel, intersect and subspace_sum."""
    amb = fc.ambient
    rows = []
    for n in amb.degrees():
        ker, bnd = kernel(amb.diff(n)), image(amb.diff(n + 1))
        dims = {
            p: subspace_sum(intersect(ker, fc.layer(p, n)), bnd).dim
            for p in range(fc.p_min - 1, fc.p_max + 1)
        }
        rows += [(n, p, dims[p] - dims[p - 1]) for p in fc.p_range]
    return rows


def moved_layer_maps(fc, rng):
    """Chain maps into fc's ambient C whose images are k(layer(p)), for the
    chain map k = 1 + d h + h d of C with a random h of degree +1: each is k
    after the inclusion of the layer, taken on the layer's own basis."""
    amb, field = fc.ambient, fc.ambient.field

    def random_matrix(rows, cols):
        return Matrix(
            field, rows, cols,
            {(i, j): field.random_element(rng) for i in range(rows) for j in range(cols)},
        )

    h = {n: random_matrix(amb.dim(n + 1), amb.dim(n)) for n in range(amb.lo - 1, amb.hi + 1)}
    k = {
        n: Matrix.identity(field, amb.dim(n)) + amb.diff(n + 1) @ h[n] + h[n - 1] @ amb.diff(n)
        for n in amb.degrees()
    }
    maps = []
    for p in fc.p_range:
        lay = {n: fc.layer(p, n) for n in amb.degrees()}
        diffs = {
            n: Matrix.from_column_dicts(
                field,
                lay[n - 1].dim,
                [
                    dict(enumerate(lay[n - 1].reduce(y)[0]))
                    for y in amb.diff(n).apply_all(lay[n].basis_columns)
                ],
            )
            for n in amb.degrees()
            if n - 1 in lay
        }
        labels = {n: range(sub.dim) for n, sub in lay.items()}
        source = ChainComplex(field, labels, diffs)
        inclusion = {n: k[n] @ sub.basis_matrix() for n, sub in lay.items()}
        maps.append(ChainMap(source, amb, inclusion))
    return maps


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_limit_comparison_matches_reference_on_non_coordinate_layers(field):
    # product filtrations of a moved filtration, and the images of chain maps
    # that move a filtration's layers, have layers that are not coordinate
    non_coordinate = [0] * 4
    for seed in range(8):
        rng = random.Random(f"limit:{seed}")
        plain = random_chain_complex(field, rng, top_degree=2, max_dim=3)
        plain = shift(plain, rng.randint(-3, 1))
        fd, _ = random_filtered_complex(field, rng, top_degree=2, max_dim=3, max_width=3)
        moved = change_of_basis(fd, rng)
        wide, _ = random_filtered_complex(field, rng)
        builds = (
            tensor_filtration(plain, moved),
            tensor_filtration(moved, plain),
            hom_filtration(plain, moved),
            from_chain_maps(moved_layer_maps(change_of_basis(wide, rng), rng)),
        )
        for k, fc in enumerate(builds):
            non_coordinate[k] += sum(
                any(len(c) > 1 for c in fc.layer(p, n).basis_columns)
                for p in fc.p_range
                for n in fc.ambient.degrees()
            )
            report = SpectralSequence(fc).limit_comparison()
            assert [(n, p, gr) for n, p, _, gr, _ in report.rows] == reference_graded_homology(fc)
    assert all(non_coordinate)


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_queries_leave_the_differentials_and_layers_as_built(field):
    # the engine edits columns in place, so it must only ever get copies
    for seed in range(10):
        rng = random.Random(f"intact:{seed}")
        fc, _ = random_filtered_complex(field, rng)
        for case in (fc, change_of_basis(fc, rng)):
            amb = case.ambient
            degrees = range(amb.lo - 1, amb.hi + 3)
            diffs = {}
            for n in degrees:
                d = amb.diff(n)
                diffs[n] = Matrix(field, d.rows, d.cols, d.entries)
            layers = {}
            for p in range(case.p_min - 1, case.p_max + 1):
                for n in degrees:
                    lay = case.layer(p, n)
                    columns = [dict(c) for c in lay.basis_columns]
                    layers[(p, n)] = Subspace(field, lay.ambient_dim, columns, lay.pivots)
            ss = SpectralSequence(case)
            for r in range(ss.r_star + 1):
                ss.page(r)
                if r:
                    ss.page_map(r)
            ss.limit_comparison()
            assert {n: amb.diff(n) for n in degrees} == diffs
            assert {key: case.layer(*key) for key in layers} == layers


@pytest.mark.parametrize("field", FIELDS[:3], ids=str)
def test_limit_comparison_only_counts_ranks(field, monkeypatch):
    # with the infinity page memoized, the comparison cuts no cycle space,
    # reads off no kernel, runs no back-substitution and presents no quotient
    sequences = []
    for seed in range(6):
        rng = random.Random(seed)
        fc, _ = random_filtered_complex(field, rng)
        for case in (fc, change_of_basis(fc, rng)):
            ss = SpectralSequence(case)
            ss.infinity_page()
            sequences.append(ss)

    def forbidden(*args):
        raise AssertionError("limit_comparison called a subspace routine")

    for module in (linalg, spectral):
        for name in ("_cut", "_kernel_columns", "_py_rcef", "quotient"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for ss in sequences:
        assert ss.limit_comparison().rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_limit_comparison_reduces_each_boundary_once(field, monkeypatch):
    # degree n's boundaries B = im d_{n+1} are read off the pivot table of
    # degree n + 1's fresh images, so no differential is copied out whole
    cases = [nested_filtration(field)]
    for seed in range(8):
        rng = random.Random(f"limit:{seed}")
        fc, _ = random_filtered_complex(field, rng)
        cases += [fc, change_of_basis(fc, rng)]
    wanted = [reference_graded_homology(fc) for fc in cases]

    def forbidden(self):
        raise AssertionError("limit_comparison copied a differential's columns")

    monkeypatch.setattr(Matrix, "column_dicts", forbidden)
    for fc, want in zip(cases, wanted):
        rows = SpectralSequence(fc).limit_comparison().rows
        assert [(n, p, gr) for n, p, _, gr, _ in rows] == want
        assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_limit_comparison_clears_and_reduces_each_column_once(field, monkeypatch):
    # one column reduction per degree in the filtration-adapted bases, shared
    # by the entries and the comparison: a fresh column whose index is a low
    # of the degree above is skipped, so the infinity page and the comparison
    # together hand the engine at most dim C_n - rank d_{n+1} columns of
    # degree n, and a second comparison hands it none
    cases = []
    for seed in range(8):
        rng = random.Random(f"clearing:{seed}")
        fc, _ = random_filtered_complex(field, rng)
        cases += [fc, change_of_basis(fc, rng)]
    bounds, wanted = [], []
    for fc in cases:
        amb = fc.ambient
        bounds.append(sum(amb.dim(n) - rank(amb.diff(n + 1)) for n in amb.degrees()))
        wanted.append(reference_graded_homology(fc))
    handed = []
    real = spectral._reduce_columns

    def counting(cols, p, piv=None):
        cols = list(cols)
        handed.append(len(cols))
        return real(cols, p, piv)

    monkeypatch.setattr(spectral, "_reduce_columns", counting)
    assert not hasattr(linalg, "_prefix_ranks")
    for fc, bound, want in zip(cases, bounds, wanted):
        handed.clear()
        ss = SpectralSequence(fc)
        ss.infinity_page()
        rows = ss.limit_comparison().rows
        assert 1 <= sum(handed) <= bound
        assert [(n, p, gr) for n, p, _, gr, _ in rows] == want
        handed.clear()
        ss.limit_comparison()
        assert not handed


def edge_shapes(field):
    """Filtrations at the edges of the comparison's index bookkeeping."""
    zero = ChainComplex(field, {})
    one_degree = ChainComplex(field, {2: ("a", "b", "c")})
    # d_2(a) = e + f, d_1(e) = x - y = -d_1(f), d_1(g) = 0: H_0 and H_1 are k
    labels = {0: ("x", "y"), 1: ("e", "f", "g"), 2: ("a",)}
    d1 = Matrix(field, 2, 3, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    d2 = Matrix(field, 3, 1, {(0, 0): 1, (1, 0): 1})
    full = ChainComplex(field, labels, {1: d1, 2: d2})
    # d_1 = 0 between nonzero terms, d_2 onto C_1
    d2 = Matrix(field, 1, 2, {(0, 1): 1})
    gap = ChainComplex(field, {0: ("x",), 1: ("e",), 2: ("a", "b")}, {2: d2})
    return {
        "zero complex": truncation_filtration(zero),
        "one degree": from_basis_levels(one_degree, {2: [1, 0, 1]}),
        "one-level window": from_basis_levels(full, {0: [4, 4], 1: [4, 4, 4], 2: [4]}),
        "degree at one level": from_basis_levels(full, {0: [0, 0], 1: [1, 2, 0], 2: [2]}),
        "repeated layers": from_basis_levels(full, {0: [0, 3], 1: [3, 3, 1], 2: [3]}),
        "zero differential": from_basis_levels(gap, {0: [1], 1: [0], 2: [2, 0]}),
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_limit_comparison_on_edge_shapes(field):
    rng = random.Random(f"edges:{field}")
    shapes = edge_shapes(field)
    repeated = shapes["repeated layers"]
    assert repeated.layer(0, 0) is repeated.layer(1, 0) is repeated.layer(2, 0)
    assert repeated.layer(1, 1) is repeated.layer(2, 1)
    assert shapes["one-level window"].p_min == shapes["one-level window"].p_max
    for name, fc in shapes.items():
        for case in (fc, change_of_basis(fc, rng)):
            rows = SpectralSequence(case).limit_comparison().rows
            assert [(n, p, gr) for n, p, _, gr, _ in rows] == reference_graded_homology(case), name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_entries_eliminate_nothing_and_keep_their_check(field, monkeypatch):
    # where Z^{r-1}(p-1) == Z^r(p) the denominator is the numerator: the
    # entry runs no elimination, whether it pushes a layer's fresh columns or
    # reads the reductions, and an arriving vector outside Z^r(p), forged into
    # the reduction of d_{n+1} that the entry reads, is still refused
    calls = []
    real = linalg._py_rcef
    monkeypatch.setattr(linalg, "_py_rcef", lambda cols, p: calls.append(p) or real(cols, p))
    zero = arriving = refused = 0
    for seed in range(8):
        rng = random.Random(f"zero-entry:{seed}")
        fc, _ = random_filtered_complex(field, rng)
        for case in (fc, change_of_basis(fc, rng)):
            amb = case.ambient
            fresh, compared = SpectralSequence(case), SpectralSequence(case)
            compared.limit_comparison()
            for r in range(1, fresh.r_star + 1):
                for p in case.p_range:
                    for n in amb.degrees():
                        key = hi, lo, below, above, _ = fresh._key(r, p, n)
                        for ss in (fresh, compared):
                            num, den = ss._cycles_at(hi, lo, n), ss._cycles_at(below, lo, n)
                        if den != num:
                            continue
                        # the arriving vectors as defined: d of the lift cycle space
                        d = amb.diff(n + 1)
                        lifts = linalg._cut(case.layer(above, n + 1), d, case.layer(hi, n))
                        pushed = [y for y in d.apply_all(lifts.basis_columns) if y]
                        spanned = Subspace.spanned_by_columns(
                            field, num.ambient_dim, num.basis_columns + tuple(pushed)
                        )
                        for ss in (fresh, compared):
                            calls.clear()
                            got = ss._compute_entry(key)
                            assert not calls
                            assert got == quotient(num, spanned) and got.dim == 0
                        zero += 1
                        arriving += bool(pushed)
                        # a reduced column of d_{n+1} the entry selects, outside Z^r(p)
                        units = ({i: 1} for i in range(amb.dim(n)))
                        outside = next((u for u in units if not num.contains_vector(u)), None)
                        if below == hi or outside is None or n == amb.hi:
                            continue
                        forged = SpectralSequence(case)
                        forged._reductions[n + 1] = {0: (above, hi, outside)}
                        with pytest.raises(NotASubspace):
                            forged.entry(r, p, n - p)
                        refused += 1
    assert zero and arriving and refused


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_entries_reading_the_reductions_eliminate_no_dependent_vector(field, monkeypatch):
    # once the comparison has built the reductions, an entry's arriving
    # vectors are reduced columns of d_{n+1} whose lows lie above
    # Z^{r-1}(p-1): independent modulo it, so the denominator's one
    # elimination gets exactly dim(den) columns, dim(den) - dim Z^{r-1}(p-1)
    # of them arriving
    handed = []
    real = Subspace.spanned_by_columns.__func__

    def counting(cls, field, ambient_dim, columns):
        handed.append(len(columns))
        return real(cls, field, ambient_dim, columns)

    monkeypatch.setattr(Subspace, "spanned_by_columns", classmethod(counting))
    eliminated = 0
    for seed in range(8):
        rng = random.Random(f"arriving:{seed}")
        fc, _ = random_filtered_complex(field, rng)
        for case in (fc, change_of_basis(fc, rng)):
            ss = SpectralSequence(case)
            ss.limit_comparison()
            r = ss.r_star
            for p in case.p_range:
                for n in case.ambient.degrees():
                    key = hi, lo, below, _, _ = ss._key(r, p, n)
                    ss._cycles_at(hi, lo, n)
                    first = ss._cycles_at(below, lo, n)
                    handed.clear()
                    got = ss._compute_entry(key)
                    assert got == ss.entry(r, p, n - p)
                    if handed:
                        assert handed == [got.relations.dim]
                        assert got.relations.dim > first.dim
                        eliminated += 1
    assert eliminated


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_first_page_builds_no_reduction(field, monkeypatch):
    # on pages 0 and 1 every lift space is a whole layer, so each entry
    # pushes that layer's fresh columns and no persistence reduction starts
    def forbidden(ss, n):
        raise AssertionError("a first-page query started a reduction")

    monkeypatch.setattr(SpectralSequence, "_reduce", forbidden)
    cases = list(edge_shapes(field).values())
    for seed in range(8):
        rng = random.Random(f"first-page:{seed}")
        fc, levels = random_filtered_complex(field, rng)
        bars = level_barcode(fc, levels)
        for case in (fc, change_of_basis(fc, rng)):
            assert SpectralSequence(case).page(1).dims() == bars.page_dims(1)
            cases.append(case)
    for case in cases:
        ss = SpectralSequence(case)
        ss.page(0)
        ss.page_map(1)
        assert not ss._reductions


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_preimage_and_intersect_match_stacked_reference(field):
    rng = random.Random(23)

    def rand_matrix(rows, cols):
        entries = {
            (i, j): field.random_element(rng)
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.5
        }
        return Matrix(field, rows, cols, entries)

    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rows, cols)
        w, a, b = (image(rand_matrix(rows, rng.randint(0, rows))) for _ in range(3))
        for got, want in (
            (preimage(m, w), stacked_preimage(m, w)),
            (intersect(a, b), stacked_intersect(a, b)),
            (intersect(b, a), stacked_intersect(a, b)),
        ):
            assert got.pivots == want.pivots
            assert got.basis_columns == want.basis_columns


@pytest.mark.parametrize("field", (QQ, F101), ids=str)
def test_one_elimination_per_cycle_space_preimage_and_intersect(field, monkeypatch):
    # each cycle space, preimage and intersection is one elimination, or
    # none where every image already lies in the target (for an
    # intersection, where one space contains the other)
    calls = []
    real = linalg._py_rcef
    monkeypatch.setattr(linalg, "_py_rcef", lambda cols, p: calls.append(p) or real(cols, p))

    def eliminations(compute):
        calls.clear()
        compute()
        return len(calls)

    def maps_into(m, sub, w):
        return all(w.contains_vector(y) for y in m.apply_all(sub.basis_columns))

    seen = {"cycles": set(), "preimage": set(), "intersect": set()}
    for seed in range(8):
        rng = random.Random(seed)
        fc, _ = random_filtered_complex(field, rng)
        moved = change_of_basis(fc, rng)
        ss = SpectralSequence(moved)
        amb = moved.ambient
        for r in range(1, ss.r_star + 1):
            for p in moved.p_range:
                for n in amb.degrees():
                    hi, lo, _, _, _ = ss._key(r, p, n)
                    if lo >= hi:
                        continue
                    top, d = moved.layer(hi, n), amb.diff(n)
                    target = moved.layer(lo, n - 1)
                    count = eliminations(lambda: ss._compute_cycles(hi, lo, n))
                    assert count == int(not maps_into(d, top, target))
                    seen["cycles"].add(count)
                    count = eliminations(lambda: preimage(d, target))
                    assert count == int(not maps_into(d, Subspace.full(field, d.cols), target))
                    seen["preimage"].add(count)
                    ker = kernel(d)
                    count = eliminations(lambda: intersect(top, ker))
                    assert count == int(not (top.contains(ker) or ker.contains(top)))
                    seen["intersect"].add(count)
    assert all(1 in counts for counts in seen.values())


@pytest.mark.parametrize("field", FIELDS[:3], ids=str)
def test_memo_keys_are_sound(field, monkeypatch):
    # entries are memoized on the cycle spaces they are built from and page
    # maps out of p <= p_max on their source and target entries: queried from
    # r_star + 1 down on one SpectralSequence, they must equal those of a
    # fresh SpectralSequence and the map induced between the entries, and an
    # entry is one object for all r >= max(p - p_min + 1, p_max - p + 1).
    # Columns up to p_max + r_star + 1 are queried: above p_max a source key
    # repeats over targets of different dimension.  Entries are queried down to
    # r = 0, where no differential cuts a layer: Z^r(p, q) is layer(p) for
    # r <= 0 and E^0(p, q) is layer(p) / layer(p - 1), on both sides of the
    # window too.
    calls = []
    real_entry = SpectralSequence._compute_entry
    real_diff = SpectralSequence._compute_diff
    monkeypatch.setattr(
        SpectralSequence,
        "_compute_entry",
        lambda ss, key: calls.append((ss, "entry", key)) or real_entry(ss, key),
    )
    monkeypatch.setattr(
        SpectralSequence,
        "_compute_diff",
        lambda ss, src, tgt: calls.append((ss, "diff", (src, tgt))) or real_diff(ss, src, tgt),
    )
    for seed in range(3):
        rng = random.Random(seed)
        base, _ = random_filtered_complex(field, rng)
        for fc in (base, change_of_basis(base, rng)):
            ss = SpectralSequence(fc)
            r_star = ss.r_star
            positions = [
                (p, n - p)
                for p in range(fc.p_min - 2, fc.p_max + r_star + 2)
                for n in fc.ambient.degrees()
            ]
            pairs = set()
            for r in range(r_star + 1, -1, -1):
                for p, q in positions:
                    assert ss.entry(r, p, q) == SpectralSequence(fc).entry(r, p, q)
                    if r == 0:
                        lay = fc.layer(p, p + q)
                        assert ss.entry(0, p, q) == quotient(lay, fc.layer(p - 1, p + q))
                        assert ss.cycles(-1, p, q) == ss.cycles(0, p, q) == lay
                        continue
                    got = ss.differential(r, p, q)
                    assert got == SpectralSequence(fc).differential(r, p, q)
                    d = fc.ambient.diff(p + q)
                    target = ss.entry(r, p - r, q + r - 1)
                    assert got == induced_map(d, ss.entry(r, p, q), target)
                    if p <= fc.p_max:
                        pairs.add((ss._key(r, p, p + q), ss._key(r, p - r, p + q - 1)))
            for p, q in positions:
                low = max(p - fc.p_min + 1, fc.p_max - p + 1)
                for r in range(low + 1, r_star + 2):
                    assert ss.entry(r, p, q) is ss.entry(low, p, q)
            for kind in ("entry", "diff"):
                keys = [key for owner, k, key in calls if owner is ss and k == kind]
                assert len(keys) == len(set(keys))
                assert len(keys) < len(positions) * (r_star + 1)
            # one induced map per distinct (source key, target key) pair
            assert set(keys) == pairs


def _frozen(sub):
    return sub.pivots, tuple(tuple(sorted(col.items())) for col in sub.basis_columns)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equal_layers_share_their_work(field, monkeypatch):
    # equal adjacent layers are one object, and every query keys on the
    # layers it reads, not on their indices: each cycle space is cut once
    # per distinct pair of layers, and every value equals one built without
    # the memo from the layers themselves
    cut_pairs = []
    real = SpectralSequence._compute_cycles

    def spy(ss, hi, lo, n):
        fc = ss.source
        cut_pairs.append((n, _frozen(fc.layer(hi, n)), _frozen(fc.layer(lo, n - 1))))
        return real(ss, hi, lo, n)

    monkeypatch.setattr(SpectralSequence, "_compute_cycles", spy)
    # degree 0 has no basis vector at levels 1 and 2
    gap = ChainComplex(
        field, {0: ("a", "b"), 1: ("e", "f")}, {1: Matrix.identity(field, 2)}
    )
    cases = [from_basis_levels(gap, {0: [0, 3], 1: [1, 3]})]
    for seed in range(3):
        rng = random.Random(f"equal-layers:{seed}")
        base, _ = random_filtered_complex(field, rng)
        cases += [base, change_of_basis(base, rng)]
    shared = 0
    for fc in cases:
        amb = fc.ambient
        for n in amb.degrees():
            for p in fc.p_range:
                if fc.layer(p, n) == fc.layer(p - 1, n):
                    assert fc.layer(p, n) is fc.layer(p - 1, n)
                    shared += 1

        def layers(r, p, n):
            return n, fc.layer(p, n), fc.layer(p - r, n - 1)

        def cycles(r, p, n):
            _, top, w = layers(r, p, n)
            return linalg._cut(top, amb.diff(n), w)

        def entry(r, p, n):
            arriving = apply_to_subspace(amb.diff(n + 1), cycles(r - 1, p + r - 1, n + 1))
            den = subspace_sum(cycles(r - 1, p - 1, n), arriving)
            return quotient(cycles(r, p, n), den)

        def read(r, p, n):
            # the pairs of layers E^r(p, n - p) is built from
            return [layers(r, p, n), layers(r - 1, p - 1, n), layers(r - 1, p + r - 1, n + 1)]

        ss = SpectralSequence(fc)
        cut_pairs.clear()
        seen = []
        for r in range(ss.r_star + 1, -1, -1):
            for p in range(fc.p_min - 2, fc.p_max + 3):
                for n in amb.degrees():
                    assert ss.cycles(r, p, n - p) == cycles(r, p, n)
                    assert ss.entry(r, p, n - p) == entry(r, p, n)
                    seen += read(r, p, n)
                    if r == 0:
                        continue
                    want = induced_map(amb.diff(n), entry(r, p, n), entry(r, p - r, n - 1))
                    assert ss.differential(r, p, n - p) == want
                    if p <= fc.p_max:
                        seen += read(r, p - r, n - 1)
        # a pair must be cut where d moves some of its layer out of the other
        needed = {
            (n, _frozen(top), _frozen(w))
            for n, top, w in seen
            if not all(map(w.contains_vector, amb.diff(n).apply_all(top.basis_columns)))
        }
        queried = {(n, _frozen(top), _frozen(w)) for n, top, w in seen}
        assert len(cut_pairs) == len(set(cut_pairs))
        assert needed <= set(cut_pairs) <= queried
    assert shared
