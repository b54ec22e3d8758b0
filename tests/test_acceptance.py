"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line with
its timing, so a verbose run reads as a checklist.  Budgets are asserted
where a criterion carries one.
"""

import math
import pathlib
import random
import sys
import time

import pytest

from specseq.complexes import ChainComplex, homology_rank
from specseq.fields import QQ, PrimeField
from specseq.filtration import from_simplicial, hom_filtration, tensor_filtration
from specseq.graded import (
    build_quotient_algebra,
    class_degrees,
    degree_breakdown,
    expand,
    factor_filtration,
    image_degree_breakdown,
    internal_degrees,
    koszul_complex,
    minimal_free_resolution,
    tensor_complex,
)
from specseq.linalg import Matrix, rank
from specseq.randomized import random_chain_complex, random_filtered_complex
from specseq.simplicial import SimplicialComplex
from specseq.spectral import SpectralSequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from property_sweep import invariant_problem  # noqa: E402

F101 = PrimeField(101)


def build_nested_simplicial(field):
    big = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    mid = SimplicialComplex(["x", "y", "w"], [["x", "y"], ["w"]])
    small = SimplicialComplex(["x", "w"], [["x"], ["w"]])
    return from_simplicial([big, mid, small], field)


def build_cancellation(field, num_vars, length):
    names = ["x", "y", "z"][:num_vars]
    gens = [
        f"{a}*{b}" if a != b else f"{a}^2"
        for i, a in enumerate(names)
        for b in names[i:]
    ]
    algebra = build_quotient_algebra(field, num_vars, gens, names=names)
    res = minimal_free_resolution(algebra, length)
    expanded = expand(tensor_complex(res, koszul_complex(algebra)))
    return expanded


@pytest.fixture(scope="module")
def resolution_side():
    """Two-variable setup at resolution length 6, filtered by resolution index."""
    expanded = build_cancellation(F101, 2, 6)
    return expanded, SpectralSequence(factor_filtration(expanded, 0))


def test_acceptance_1_nested_simplicial_pages():
    start = time.perf_counter()
    fc = build_nested_simplicial(QQ)
    ss = SpectralSequence(fc)
    assert ss.page(2).dims() == {(0, 0): 1, (2, -1): 1}
    d = ss.differential(2, 2, -1)
    assert d.rows == 1 and d.cols == 1 and rank(d) == 1
    assert ss.page(3).dims() == {}
    assert ss.infinity_page().dims() == {}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: nested simplicial pages and collapse ({elapsed:.2f}s)")


def test_acceptance_2_cancellation_image_lengths():
    start = time.perf_counter()
    expanded = build_cancellation(F101, 2, 6)
    ss = SpectralSequence(factor_filtration(expanded, 0))
    d2 = ss.differential(2, 3, 0)
    tgt2 = ss.entry(2, 1, 1)
    total2, by_degree2 = image_degree_breakdown(
        d2, class_degrees(tgt2, internal_degrees(expanded, 2))
    )
    assert total2 == 6
    assert by_degree2 == {3: 6}
    d3 = ss.differential(3, 3, 0)
    tgt3 = ss.entry(3, 0, 2)
    total3, by_degree3 = image_degree_breakdown(
        d3, class_degrees(tgt3, internal_degrees(expanded, 2))
    )
    assert total3 == 2
    assert by_degree3 == {3: 2}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: image lengths 6 and 2 in internal degree 3 ({elapsed:.2f}s)")


def test_acceptance_3_first_page_row(resolution_side):
    start = time.perf_counter()
    expanded, ss = resolution_side
    for p in range(4):
        entry = ss.entry(1, p, 0)
        assert entry.dim == 2 ** p
        degrees = degree_breakdown(entry, internal_degrees(expanded, p))
        assert degrees == {p: 2 ** p}
    mixed = ss.entry(1, 1, 1)
    assert mixed.dim == 6
    assert degree_breakdown(mixed, internal_degrees(expanded, 2)) == {3: 6}
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 3: first page row 1,2,4,8 plus the 6 above it ({elapsed:.2f}s)")


def test_acceptance_4_koszul_side_degenerates():
    start = time.perf_counter()
    for num_vars in (2, 3):
        expanded = build_cancellation(F101, num_vars, 3)
        fc = factor_filtration(expanded, 1)
        ss = SpectralSequence(fc)
        window = [(p, q) for p in fc.p_range for q in range(0, 3)]
        for p, q in window:
            first = ss.entry(1, p, q)
            stable = ss.entry(ss.r_star, p, q)
            if q == 0 and p <= num_vars:
                want = math.comb(num_vars, p)
                assert first.dim == want
                assert degree_breakdown(
                    first, internal_degrees(expanded, p)
                ) == {p: want}
            else:
                assert first.dim == 0
            assert stable.dim == first.dim
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: Koszul-side page is binomial and degenerate ({elapsed:.2f}s)")


def test_acceptance_5_limit_totals(resolution_side):
    start = time.perf_counter()
    expanded, ss = resolution_side
    fc = ss.source
    inf = ss.infinity_page()
    for n, want in [(0, 1), (1, 2), (2, 1)]:
        total = sum(inf.entry(p, n - p).dim for p in fc.p_range)
        assert total == want
        assert total == homology_rank(expanded, n)
        entry = inf.entry(n, 0)
        assert entry.dim == want
        assert degree_breakdown(entry, internal_degrees(expanded, n)) == {n: want}
    report = ss.limit_comparison()
    assert report.ok
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: infinity totals 1,2,1 on the axis ({elapsed:.2f}s)")


def relative_complex(fc, levels, p):
    amb = fc.ambient
    keep = {
        m: [i for i, lv in enumerate(levels.get(m, [])) if lv == p]
        for m in amb.degrees()
    }
    labels = {m: tuple(keep[m]) for m in amb.degrees() if keep[m]}
    diffs = {}
    for m in amb.degrees():
        rows, cols = keep.get(m - 1, []), keep.get(m, [])
        if not rows or not cols:
            continue
        row_pos = {i: a for a, i in enumerate(rows)}
        col_pos = {j: b for b, j in enumerate(cols)}
        entries = {}
        for (i, j), v in amb.diff(m).entries.items():
            if i in row_pos and j in col_pos:
                entries[(row_pos[i], col_pos[j])] = v
        if entries:
            diffs[m] = Matrix(amb.field, len(rows), len(cols), entries)
    return ChainComplex(amb.field, labels, diffs, validate=False)


def test_acceptance_6_random_filtrations():
    start = time.perf_counter()
    count = 0
    for trial in range(50):
        rng = random.Random(20_000 + trial)
        field = F101 if trial % 2 else QQ
        fc, levels = random_filtered_complex(field, rng)
        fc.validate()
        ss = SpectralSequence(fc)
        assert invariant_problem(ss) is None
        for p in fc.p_range:
            rel = relative_complex(fc, levels, p)
            for n in fc.ambient.degrees():
                assert ss.entry(1, p, n - p).dim == homology_rank(rel, n)
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 50
    assert elapsed < 60.0
    print(f"PASS criterion 6: {count} random filtrations verified ({elapsed:.2f}s)")


def test_acceptance_7_two_sided_tensor():
    start = time.perf_counter()
    pairs = 0
    for trial in range(20):
        rng = random.Random(31_000 + trial)
        field = F101 if trial % 2 else QQ
        plain = random_chain_complex(field, rng, top_degree=2, max_dim=3)
        filtered, _ = random_filtered_complex(
            field, rng, top_degree=2, max_dim=3, max_width=3
        )
        second = SpectralSequence(tensor_filtration(plain, filtered))
        first = SpectralSequence(tensor_filtration(filtered, plain))
        ambient = second.source.ambient
        assert first.source.ambient.total_dim() == ambient.total_dim()
        lo = min(ambient.lo, first.source.ambient.lo)
        hi = max(ambient.hi, first.source.ambient.hi)
        for n in range(lo, hi + 1):
            want = sum(
                homology_rank(plain, i) * homology_rank(filtered.ambient, n - i)
                for i in range(plain.lo, plain.hi + 1)
            )
            total_second = sum(
                second.infinity_page().entry(p, n - p).dim
                for p in second.source.p_range
            )
            total_first = sum(
                first.infinity_page().entry(p, n - p).dim
                for p in first.source.p_range
            )
            assert total_second == want
            assert total_first == want
        assert second.limit_comparison().ok
        assert first.limit_comparison().ok
        pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs >= 20
    assert elapsed < 30.0
    print(f"PASS criterion 7: {pairs} tensor pairs agree from both sides ({elapsed:.2f}s)")


def test_acceptance_8_hom_filtration():
    start = time.perf_counter()
    point = ChainComplex(QQ, {0: ("pt",)})
    fd = build_nested_simplicial(QQ)
    wrapped = SpectralSequence(hom_filtration(point, fd))
    direct = SpectralSequence(fd)
    for r in range(1, direct.r_star + 1):
        assert wrapped.page(r).dims() == direct.page(r).dims()
    assert wrapped.infinity_page().dims() == direct.infinity_page().dims()
    assert wrapped.limit_comparison().ok
    for trial in range(10):
        rng = random.Random(47_000 + trial)
        field = F101 if trial % 2 else QQ
        src = random_chain_complex(field, rng, top_degree=1, max_dim=2)
        tgt, _ = random_filtered_complex(field, rng, top_degree=2, max_dim=3)
        fc = hom_filtration(src, tgt)
        fc.validate()
        ss = SpectralSequence(fc)
        for r in (1, 2):
            for p in fc.p_range:
                for n in fc.ambient.degrees():
                    q = n - p
                    out = ss.differential(r, p, q)
                    back = ss.differential(r, p - r, q + r - 1)
                    assert (back @ out).is_zero
        assert ss.limit_comparison().ok
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 8: Hom filtration checks out ({elapsed:.2f}s)")
