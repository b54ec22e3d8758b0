import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import linalg
from specseq.errors import AmbientMismatch, MixedFields, NotASubspace, NotWellDefined
from specseq.fields import QQ, PrimeField, parse_field_token
from specseq.linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    echelonize,
    image,
    induced_map,
    intersect,
    kernel,
    parse_matrix_machine,
    preimage,
    quotient,
    rank,
    render_matrix_machine,
    subspace_sum,
)
from specseq.randomized import random_filtered_complex
from specseq.spectral import SpectralSequence
from specseq.text import Lines

F7 = PrimeField(7)
F101 = PrimeField(101)


def rand_matrix(field, rng, rows, cols, density=0.6):
    data = [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    return Matrix.from_rows(field, data)


def rand_fraction_matrix(rng, rows, cols, density=0.6):
    """QQ matrix with entries Fraction(randint(-4, 4), randint(1, 4))."""
    data = [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < density else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return Matrix.from_rows(QQ, data)


def rand_subspace(field, rng, ambient, count):
    return image(rand_matrix(field, rng, ambient, count))


def test_matrix_basics():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.entry(1, 0) == QQ.element(3)
    assert m.entry(0, 1) == QQ.element(2)
    v = m.apply({0: QQ.element(1), 1: QQ.element(1)})
    assert v == {0: QQ.element(3), 1: QQ.element(7)}
    assert (m - m).is_zero
    assert m.scale(QQ.element(2)).entry(1, 1) == QQ.element(8)
    assert m.transpose().entry(0, 1) == QQ.element(3)


def test_matmul_literal():
    a = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = Matrix.from_rows(QQ, [[1, 0], [3, 1]])
    assert a @ b == Matrix.from_rows(QQ, [[7, 2], [3, 1]])
    with pytest.raises(AmbientMismatch):
        a @ Matrix.zeros(QQ, 3, 3)


def test_echelon_literal():
    # columns (2,1,0) and (4,2,3): reduced column echelon has pivots in rows 0 and 2
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2], [0, 3]])
    e, r = echelonize(m)
    assert r == 2
    assert e == Matrix.from_rows(QQ, [[1, 0], [Fraction(1, 2), 0], [0, 1]])
    assert rank(m) == 2


def test_echelon_idempotent_and_canonical():
    rng = random.Random(11)
    for field in (QQ, F101):
        for _ in range(25):
            m = rand_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            e, r = echelonize(m)
            again, r2 = echelonize(e)
            assert again == e and r2 == r
            # image is scale and shuffle invariant, so the canonical basis is too
            cols = m.column_dicts()
            rng.shuffle(cols)
            scaled = []
            for c in cols:
                s = field.element(rng.choice([1, 2, 3, -1]))
                scaled.append({i: s * v for i, v in c.items()})
            m2 = Matrix.from_column_dicts(field, m.rows, scaled)
            assert image(m2) == image(m)


@pytest.mark.parametrize("rows, cols", [(40, 60), (60, 40)])
@pytest.mark.parametrize("token", ["QQ", "F2", "F2147483647"])
def test_echelon_and_kernel_ignore_column_order_and_scale(token, rows, cols):
    field = parse_field_token(token)
    rng = random.Random(rows * 100 + cols)
    m = rand_matrix(field, rng, rows, cols, density=0.04)
    order = list(range(cols))
    rng.shuffle(order)
    scales = []
    for _ in order:
        s = field.random_element(rng)
        scales.append(s if s else field.one)
    columns = m.column_dicts()
    moved = Matrix.from_column_dicts(
        field,
        rows,
        [{i: s * v for i, v in columns[j].items()} for j, s in zip(order, scales)],
    )
    assert echelonize(moved) == echelonize(m)
    # column k of moved is scales[k] times column order[k] of m, so x lies in
    # kernel(moved) exactly when sum_k x_k scales[k] e_order[k] lies in kernel(m)
    back = [
        {order[k]: (scales[k] * v).value for k, v in col.items()}
        for col in kernel(moved).basis_columns
    ]
    assert Subspace.spanned_by_columns(field, cols, back) == kernel(m)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_echelon_picks_up_a_filled_pivot_row(field):
    # reducing the third column by the first fills row 1, and reducing that
    # by the second fills row 2, which is where the third pivot lands
    m = Matrix.from_rows(field, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    e, r = echelonize(m)
    assert r == 3
    assert e == Matrix.identity(field, 3)
    assert kernel(m).is_zero


def test_reduce_recombines_to_the_vector():
    rng = random.Random(97)
    for field in (QQ, F7, PrimeField(2147483647)):
        for _ in range(25):
            ambient = rng.randint(1, 12)
            s = rand_subspace(field, rng, ambient, rng.randint(0, 8))
            vec = rand_matrix(field, rng, ambient, 1, density=0.5).columns[0]
            coords, residual = s.reduce(vec)
            assert len(coords) == s.dim
            assert residual == s.residual(vec)
            assert not any(pr in residual for pr in s.pivots)
            total = {i: field.element(v) for i, v in residual.items()}
            for c, col in zip(coords, s.basis_columns):
                for i, v in col.items():
                    total[i] = total.get(i, field.zero) + c * v
            assert {i: v for i, v in total.items() if v} == vec
            assert s.contains_vector(vec) == (not residual)


def test_apply_all_matches_apply():
    rng = random.Random(101)
    for field in (QQ, F101):
        for _ in range(10):
            m = rand_matrix(field, rng, rng.randint(0, 6), rng.randint(1, 6))
            vecs = rand_matrix(field, rng, m.cols, rng.randint(0, 5)).column_dicts()
            assert m.apply_all(vecs) == [m.apply(v) for v in vecs]


def test_kernel_literal():
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.basis_columns[0] == {0: QQ.element(1), 1: QQ.element(-1)}


def test_rank_nullity():
    rng = random.Random(23)
    for field in (QQ, F7):
        for _ in range(30):
            m = rand_matrix(field, rng, rng.randint(1, 7), rng.randint(1, 7))
            assert rank(m) + kernel(m).dim == m.cols
            assert rank(m) == rank(m.transpose())


def test_subspace_membership():
    s = Subspace.spanned_by(Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]]))
    assert s.dim == 2
    assert s.contains_vector({0: QQ.element(2), 1: QQ.element(3), 2: QQ.element(5)})
    assert not s.contains_vector({0: QQ.element(1), 2: QQ.element(0)})
    coords, residual = s.reduce({0: QQ.element(1), 1: QQ.element(1), 2: QQ.element(2)})
    assert coords == [QQ.element(1), QQ.element(1)]
    assert residual == {}


def test_zero_and_full():
    z = Subspace.zero(QQ, 4)
    f = Subspace.full(QQ, 4)
    assert z.dim == 0 and z.is_zero
    assert f.dim == 4 and f.is_full
    assert f.contains(z)
    for rows, cols in ((3, 4), (0, 2), (2, 0)):
        assert kernel(Matrix.zeros(QQ, rows, cols)) == Subspace.full(QQ, cols)


def test_contains_refuses_mixed_fields_and_ambients():
    with pytest.raises(MixedFields):
        Subspace.full(QQ, 2).contains(Subspace.full(PrimeField(2), 2))
    with pytest.raises(AmbientMismatch):
        Subspace.full(QQ, 2).contains(Subspace.full(QQ, 3))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F101, PrimeField(2147483647)], ids=str)
def test_contains_agrees_with_the_residual_rule(field, monkeypatch):
    # a coordinate subspace answers from its pivot rows and equal subspaces
    # from their bases: both must say what the residual says, for vectors
    # with explicit zero entries and entries outside the ambient space too
    rng = random.Random(f"contains:{field}")
    cases, kinds = [], set()
    for _ in range(80):
        ambient = rng.randint(1, 8)
        coordinate = rng.random() < 0.5
        if coordinate:
            rows = sorted(rng.sample(range(ambient), rng.randint(0, ambient)))
            s = Subspace.coordinate(field, ambient, rows)
        else:
            s = rand_subspace(field, rng, ambient, rng.randint(0, ambient))
        vecs = []
        for _ in range(12):
            vec = {i: field.scalar(rng.randint(-3, 3)) for i in range(ambient)}
            vec = {i: v for i, v in vec.items() if rng.random() < 0.4}
            if rng.random() < 0.3:
                vec[rng.randrange(ambient)] = 0
            if rng.random() < 0.2:
                vec[rng.choice([-1, ambient, ambient + 2])] = rng.choice([0, 1])
            vecs.append(vec)
        # s's own basis vectors, the empty vector and one of explicit zeros
        vecs += [dict(c) for c in s.basis_columns]
        vecs += [{}, {i: 0 for i in range(ambient)}]
        combos = [{k: field.scalar(rng.randint(-2, 2)) for k in range(s.dim)} for _ in range(2)]
        others = [
            rand_subspace(field, rng, ambient, rng.randint(0, ambient)),
            Subspace.spanned_by_columns(field, ambient, s.basis_matrix().apply_all(combos)),
            Subspace.zero(field, ambient),
            Subspace.full(field, ambient),
        ]
        for vec in vecs:
            want = not s.residual(vec)
            assert s.contains_vector(vec) == want
            kinds.add((coordinate, want))
        for other in others:
            assert s.contains(other) == all(not s.residual(c) for c in other.basis_columns)
        cases.append(s)

    def forbidden(self, vec):
        raise AssertionError("residual called for an equal subspace")

    monkeypatch.setattr(Subspace, "residual", forbidden)
    for s in cases:
        same = Subspace(field, s.ambient_dim, [dict(c) for c in s.basis_columns], s.pivots)
        assert s.contains(same) and same.contains(s) and s.contains(s)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_first_reads_of_a_shared_subspace_race_safely():
    # a subspace builds its pivot index on first read; threads that read a
    # fresh one at once must all see a complete index
    rng = random.Random(3)
    vecs = [rand_matrix(F101, rng, 40, 1).columns[0] for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            sub = rand_subspace(F101, rng, 40, 20)
            fresh = Subspace(F101, 40, sub.basis_columns, sub.pivots)
            want = [sub.residual(v) for v in vecs]
            got, errors = [None] * 8, []
            start = threading.Barrier(8)

            def read(k):
                start.wait()
                try:
                    got[k] = [fresh.residual(v) for v in vecs]
                except Exception as exc:  # recorded for the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert all(g == want for g in got)
    finally:
        sys.setswitchinterval(old)


def test_sum_intersection_dimension_formula():
    rng = random.Random(5)
    for field in (QQ, F101):
        for _ in range(40):
            ambient = rng.randint(1, 7)
            u = rand_subspace(field, rng, ambient, rng.randint(0, 5))
            w = rand_subspace(field, rng, ambient, rng.randint(0, 5))
            s = subspace_sum(u, w)
            i = intersect(u, w)
            assert s.dim + i.dim == u.dim + w.dim
            assert s.contains(u) and s.contains(w)
            assert u.contains(i) and w.contains(i)


def test_preimage_dimension():
    rng = random.Random(17)
    for field in (QQ, F101):
        for _ in range(30):
            m = rand_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            w = rand_subspace(field, rng, m.rows, rng.randint(0, 4))
            pre = preimage(m, w)
            expected = kernel(m).dim + intersect(image(m), w).dim
            assert pre.dim == expected
            # the defining property: every preimage vector maps into w
            for col in pre.basis_columns:
                assert w.contains_vector(m.apply(col))


def test_apply_to_subspace_matches_columnwise():
    rng = random.Random(31)
    for field in (QQ, F101):
        for _ in range(20):
            m = rand_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            s = rand_subspace(field, rng, m.cols, rng.randint(0, 4))
            pushed = apply_to_subspace(m, s)
            direct = Subspace.spanned_by_columns(
                field, m.rows, [m.apply(c) for c in s.basis_columns]
            )
            assert pushed == direct


def test_quotient_literal():
    v = Subspace.full(QQ, 3)
    w = Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0], [0]]))
    q = quotient(v, w)
    assert q.dim == 2
    # the class of e1 + 5 e0 is the class of e1
    coords = q.coordinates({0: QQ.element(5), 1: QQ.element(1)})
    assert coords == [QQ.element(1), QQ.element(0)]
    assert q.coordinates({0: QQ.element(3)}) == [QQ.element(0), QQ.element(0)]


def test_quotient_rejects_outside_vectors():
    v = Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0], [0]]))
    w = Subspace.zero(QQ, 3)
    q = quotient(v, w)
    with pytest.raises(NotASubspace):
        q.coordinates({1: QQ.element(1)})
    with pytest.raises(NotASubspace):
        quotient(w, v)
    # w outside v with dim w <= dim v fails the dimension count alone
    e1 = Subspace.spanned_by(Matrix.from_rows(QQ, [[0], [1], [0]]))
    with pytest.raises(NotASubspace, match="denominator not contained in numerator"):
        quotient(v, e1)
    # w's pivots are among v's, yet w is not in v: the selection alone would
    # accept it
    v = Subspace.spanned_by_columns(QQ, 3, [{0: 1, 2: 1}])
    w = Subspace.spanned_by_columns(QQ, 3, [{0: 1}])
    with pytest.raises(NotASubspace, match="denominator not contained in numerator"):
        quotient(v, w)


def test_quotient_selects_the_canonical_complement_with_no_elimination(monkeypatch):
    # w is spanned by random combinations of v's basis, so w lies in v; the
    # reference is the complement by its definition, the span of the
    # residuals of v's basis modulo w, computed before the engine is patched
    rng = random.Random(61)
    cases = []
    for field in (QQ, PrimeField(2), F101):
        for _ in range(40):
            ambient = rng.randint(2, 7)
            v = rand_subspace(field, rng, ambient, rng.randint(1, ambient))
            if all(len(c) == 1 for c in v.basis_columns):
                continue
            w = image(v.basis_matrix() @ rand_matrix(field, rng, v.dim, rng.randint(1, v.dim)))
            residuals = [w.residual(c) for c in v.basis_columns]
            reference = Subspace.spanned_by_columns(field, ambient, [r for r in residuals if r])
            cases.append((v, w, reference))
    assert sum(0 < w.dim < v.dim for v, w, _ in cases) > 30

    def refuse(*args):
        raise AssertionError("quotient ran an elimination")

    monkeypatch.setattr(linalg, "_py_rcef", refuse)
    monkeypatch.setattr(linalg, "_reduce_columns", refuse)
    for v, w, reference in cases:
        q = quotient(v, w)
        assert q.complement == reference
        assert q.dim == v.dim - w.dim


def test_quotient_dims_and_linearity():
    rng = random.Random(41)
    for field in (QQ, F101):
        for _ in range(30):
            ambient = rng.randint(1, 7)
            v = Subspace.full(field, ambient)
            w = rand_subspace(field, rng, ambient, rng.randint(0, 4))
            q = quotient(v, w)
            assert q.dim == v.dim - w.dim
            for col in w.basis_columns:
                assert not any(q.coordinates(col))
            if q.dim:
                a = rand_matrix(field, rng, ambient, 1).columns[0]
                b = rand_matrix(field, rng, ambient, 1).columns[0]
                ca = q.coordinates(a)
                cb = q.coordinates(b)
                ab = dict(a)
                for i, val in b.items():
                    s = field.scalar(ab.get(i, 0) + val)
                    if s:
                        ab[i] = s
                    else:
                        ab.pop(i, None)
                cab = q.coordinates(ab)
                assert cab == [field.scalar(x + y) for x, y in zip(ca, cb)]


def test_induced_map_literal():
    m = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    w = Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0], [0]]))
    q = quotient(Subspace.full(QQ, 3), w)
    ind = induced_map(m, q, q)
    assert ind == Matrix.from_rows(QQ, [[2, 0], [0, 3]])


def test_induced_map_rejects_ill_defined():
    # the swap of e0 and e1 does not preserve span(e0)
    m = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    w = Subspace.spanned_by(Matrix.from_rows(QQ, [[1], [0]]))
    q = quotient(Subspace.full(QQ, 2), w)
    with pytest.raises(NotWellDefined):
        induced_map(m, q, q)


def test_induced_map_random_consistency():
    # the induced matrix must reproduce coordinates of pushed representatives
    rng = random.Random(53)
    for field in (QQ, F101):
        for _ in range(25):
            ambient = rng.randint(2, 6)
            w = rand_subspace(field, rng, ambient, 1)
            q = quotient(Subspace.full(field, ambient), w)
            m = rand_matrix(field, rng, ambient, ambient)
            shifted = apply_to_subspace(m, w)
            if not w.contains(shifted):
                with pytest.raises(NotWellDefined):
                    induced_map(m, q, q)
                continue
            ind = induced_map(m, q, q)
            for j, rep in enumerate(q.reps.column_dicts()):
                coords = q.coordinates(m.apply(rep))
                assert ind.columns[j] == {
                    i: v for i, v in enumerate(coords) if v
                }


def test_prime_and_rational_engines_agree():
    # small integer matrices avoid denominators, so reducing a rational
    # echelon form mod p must match the prime field computation
    rng = random.Random(67)
    p = 101
    f = PrimeField(p)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(cols)] for _ in range(rows)]
        mq = Matrix.from_rows(QQ, data)
        mp = Matrix.from_rows(f, data)
        eq, rq = echelonize(mq)
        ep, rp = echelonize(mp)
        assert rq == rp
        lifted = Matrix.from_rows(
            f,
            [
                [
                    f.element(
                        eq.entry(i, j).value.numerator
                        * pow(eq.entry(i, j).value.denominator, p - 2, p)
                    )
                    for j in range(eq.cols)
                ]
                for i in range(eq.rows)
            ],
        )
        assert lifted == ep


def _sympy_values(field, dm):
    """Rows of a sympy DomainMatrix as raw values of field."""
    p = field.characteristic
    if p:
        # sympy prints residues as symmetric representatives
        return [[int(x) % p for x in row] for row in dm.to_list()]
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]


def _check_against_sympy(m):
    from sympy import GF
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    field, rows, cols = m.field, m.rows, m.cols
    p = field.characteristic
    ref = DomainMatrix.from_list(
        [[m.entry(i, j).value for j in range(cols)] for i in range(rows)],
        GF(p) if p else SQQ,
    )
    # reduced column echelon form is the transposed reduced row echelon form
    ref_rref, ref_pivots = ref.transpose().rref()
    ech, r = echelonize(m)
    assert r == len(ref_pivots) == rank(m)
    expected = _sympy_values(field, ref_rref.transpose())
    assert [[ech.entry(i, j).value for j in range(cols)] for i in range(rows)] == expected
    # the kernel basis, entry by entry, against sympy's nullspace in canonical
    # form: the rows of its reduced row echelon form
    ker = kernel(m)
    assert ker.dim == cols - r
    if ker.dim:
        null_rref, _ = ref.nullspace().rref()
        expected = _sympy_values(field, null_rref)
    else:
        expected = []
    assert [[c.get(j, 0) for j in range(cols)] for c in ker.basis_columns] == expected


@pytest.mark.parametrize(
    "rows, cols, density", [(30, 20, 0.08), (40, 90, 0.08), (100, 90, 0.03), (100, 90, 0.08)]
)
@pytest.mark.parametrize("token", ["QQ", "F2", "F2147483647"])
def test_engine_matches_sympy(token, rows, cols, density):
    pytest.importorskip("sympy")
    field = parse_field_token(token)
    rng = random.Random(rows * 1000 + cols)
    _check_against_sympy(rand_matrix(field, rng, rows, cols, density=density))


def test_engine_matches_sympy_tall_rank_deficient():
    # 80 x 40 of rank at most 12: a tall matrix whose kernel is not zero
    pytest.importorskip("sympy")
    rng = random.Random(8040)
    m = rand_matrix(QQ, rng, 80, 12, density=0.3) @ rand_matrix(QQ, rng, 12, 40, density=0.3)
    assert kernel(m).dim >= 28
    _check_against_sympy(m)


@pytest.mark.parametrize(
    "rows, cols, density", [(30, 20, 0.3), (20, 30, 0.3), (60, 50, 0.08)]
)
def test_engine_matches_sympy_on_fractions(rows, cols, density):
    # non-integral entries: every column's denominators are cleared first
    pytest.importorskip("sympy")
    rng = random.Random(rows * 1000 + cols + 7)
    _check_against_sympy(rand_fraction_matrix(rng, rows, cols, density=density))


def test_engine_matches_sympy_on_fractions_tall_rank_deficient():
    pytest.importorskip("sympy")
    rng = random.Random(6020)
    m = rand_fraction_matrix(rng, 60, 8, 0.4) @ rand_fraction_matrix(rng, 8, 20, 0.4)
    assert kernel(m).dim >= 12
    _check_against_sympy(m)


def _stored_rationals(values):
    """Stored rationals are nonzero ints or non-integral Fractions."""
    return all(
        (type(v) is int or (type(v) is Fraction and v.denominator != 1)) and v for v in values
    )


def test_stored_rationals_are_normalized():
    # an integral Fraction such as Fraction(-4, 1) is stored as the int -4;
    # random_filtered_complex(QQ) with seed 7 has one in a page map
    rng = random.Random(56)
    for _ in range(200):
        m = rand_fraction_matrix(rng, 5, 6)
        ech, _ = echelonize(m)
        assert _stored_rationals(ech.entries.values())
        for sub in (kernel(m), image(m)):
            for col in sub.basis_columns:
                assert _stored_rationals(col.values())
    for seed in range(20):
        fc, _ = random_filtered_complex(QQ, random.Random(seed))
        ss = SpectralSequence(fc)
        for r in range(1, ss.r_star + 1):
            for pres in ss.page(r).entries.values():
                for col in pres.rep_columns:
                    assert _stored_rationals(col.values())
            for d in ss.page_map(r).matrices.values():
                assert _stored_rationals(d.entries.values())


def test_matrix_arithmetic_and_cuts_store_normalized_rationals():
    # sums of products of Fractions can be integral: [1/2 1/2] @ [1 1]^T = 1
    half = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 2)]])
    ones = Matrix.from_rows(QQ, [[1], [1]])
    for m in (half @ ones, half + half, half - half.scale(-1), half.scale(2)):
        assert _stored_rationals(m.entries.values())
    rng = random.Random(57)
    for _ in range(100):
        m = rand_fraction_matrix(rng, 5, 6)
        w = image(rand_fraction_matrix(rng, 5, 3))
        a, b = image(rand_fraction_matrix(rng, 6, 4)), image(rand_fraction_matrix(rng, 6, 4))
        for sub in (preimage(m, w), intersect(a, b)):
            for col in sub.basis_columns:
                assert _stored_rationals(col.values())


def _stored_residues(values, p):
    """Stored scalars mod p are nonzero ints in [1, p), never FieldElements."""
    return all(type(v) is int and 0 < v < p for v in values)


def _plain_entries(table, p):
    return {
        (i, j): v % p for i, row in enumerate(table) for j, v in enumerate(row) if v % p
    }


def test_chunked_products_at_the_largest_modulus():
    # entries near p - 1 with p just under 2^31: residue products near 2^62
    # must be reduced mod p after every update of the sparse engine; the
    # stored values are read directly, because Matrix.entry re-normalizes
    p = 2147483647
    f = PrimeField(p)
    rng = random.Random(71)
    rows_a = [[rng.randrange(p - 5, p) for _ in range(40)] for _ in range(6)]
    rows_b = [[rng.randrange(p - 5, p) for _ in range(5)] for _ in range(40)]
    rows_a2 = [[rng.randrange(p - 5, p) for _ in range(40)] for _ in range(6)]
    a, b, a2 = (Matrix.from_rows(f, rows) for rows in (rows_a, rows_b, rows_a2))
    exact = a @ b
    s = image(b)
    pushed = apply_to_subspace(a, s)
    direct = Subspace.spanned_by_columns(
        f, a.rows, [a.apply(c) for c in s.basis_columns]
    )
    assert pushed == direct
    assert exact.entry(0, 0).value == sum(
        a.entry(0, k).value * b.entry(k, 0).value for k in range(40)
    ) % p
    product = [
        [sum(rows_a[i][k] * rows_b[k][j] for k in range(40)) for j in range(5)]
        for i in range(6)
    ]
    assert exact.entries == _plain_entries(product, p)
    plus = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(rows_a, rows_a2)]
    minus = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(rows_a, rows_a2)]
    assert (a + a2).entries == _plain_entries(plus, p)
    assert (a - a2).entries == _plain_entries(minus, p)
    assert (a - a).entries == {}
    assert a.scale(p - 3).entries == _plain_entries([[-3 * x for x in r] for r in rows_a], p)
    assert a.scale(f.element(-3)) == a.scale(p - 3)
    vecs = [{k: rng.randrange(p - 5, p) for k in rng.sample(range(40), 7)} for _ in range(4)]
    for vec, img in zip(vecs, a.apply_all(vecs)):
        expected = {i: sum(rows_a[i][k] * v for k, v in vec.items()) % p for i in range(6)}
        assert img == {i: v for i, v in expected.items() if v}
    for sub in (s, pushed):
        for col in sub.basis_columns:
            assert _stored_residues(col.values(), p)

    # the combination r1 e0 - r0 e1 of the basis {ei + ri e6} of u cancels in
    # row 6 only modulo p, so intersect must reduce the vectors it builds
    r = [rng.randrange(p - 5, p) for _ in range(6)]
    u = Subspace.spanned_by_columns(f, 7, [{i: 1, 6: r[i]} for i in range(6)])
    w = Subspace.spanned_by_columns(f, 7, [{0: r[1], 1: p - r[0]}, {2: r[3], 3: p - r[2]}])
    cap = intersect(u, w)
    assert cap == w and cap.dim == 2
    for col in cap.basis_columns + u.basis_columns + w.basis_columns:
        assert _stored_residues(col.values(), p)

    m = Matrix.from_rows(f, [[rng.randrange(p - 5, p) for _ in range(7)] for _ in range(5)])
    spanning = [[rng.randrange(p - 5, p) for _ in range(2)] for _ in range(5)]
    target = image(Matrix.from_rows(f, spanning))
    pre = preimage(m, target)
    assert pre.dim == kernel(m).dim + intersect(image(m), target).dim == 4
    for col in pre.basis_columns:
        assert _stored_residues(col.values(), p)
        assert target.contains_vector(m.apply(col))

    q = quotient(u, w)
    for _ in range(3):
        x = [rng.randrange(p - 5, p) for _ in range(6)]
        vec = dict(enumerate(x))
        vec[6] = sum(xk * rk for xk, rk in zip(x, r)) % p
        coords = q.coordinates(vec)
        assert all(type(c) is int and 0 <= c < p for c in coords)
        rest = dict(vec)
        for c, rep in zip(coords, q.rep_columns):
            for k, v in rep.items():
                rest[k] = (rest.get(k, 0) - c * v) % p
        assert w.contains_vector({k: v for k, v in rest.items() if v})


def test_machine_matrix_round_trip():
    rng = random.Random(83)
    for field in (QQ, F101):
        for _ in range(15):
            m = rand_matrix(field, rng, rng.randint(0, 5), rng.randint(0, 5))
            text = render_matrix_machine(m)
            lines = Lines(text)
            parsed = parse_matrix_machine(lines)
            assert parsed == m
            assert lines.done
            # the (row, col) view and the columns each rebuild the matrix
            assert Matrix(field, m.rows, m.cols, m.entries) == m
            assert Matrix.from_column_dicts(field, m.rows, m.columns) == m


def test_from_column_dicts_matches_the_entries_constructor():
    # FieldElement, Fraction and int values, explicit zeros and rows outside
    # the matrix: the same matrix, or the same error, as Matrix(entries), and
    # the caller's dicts are copied, not adopted
    rng = random.Random(89)

    def outcome(build):
        try:
            return build()
        except (IndexError, TypeError, ValueError) as exc:
            return type(exc), str(exc)

    for field in (QQ, PrimeField(2), F101, PrimeField(2147483647)):
        zeros = (0, Fraction(0), field.element(0))
        outcomes = set()
        for _ in range(150):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            columns = []
            for _ in range(cols):
                col = {}
                for i in rng.sample(range(-1, rows + 1), rng.randint(0, rows)):
                    kind = rng.randrange(4)
                    if kind == 0:
                        col[i] = field.random_element(rng)
                    elif kind == 1:
                        col[i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    elif kind == 2:
                        col[i] = rng.choice(zeros)
                    else:
                        col[i] = rng.randint(-9, 9)
                columns.append(col)
            before = [dict(col) for col in columns]
            entries = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
            got = outcome(lambda: Matrix.from_column_dicts(field, rows, columns))
            want = outcome(lambda: Matrix(field, rows, cols, entries))
            assert columns == before
            if isinstance(want, Matrix):
                assert got == want and got.columns == want.columns
                assert all(a is not b for a, b in zip(got.columns, columns))
                outcomes.add("matrix")
            else:
                assert got == want
                outcomes.add(want[0])
        assert "matrix" in outcomes and IndexError in outcomes
        assert field == QQ or TypeError in outcomes
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        Matrix.from_column_dicts(QQ, -1, [])


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_image_contains_every_column(rows):
    m = Matrix.from_rows(QQ, rows)
    s = image(m)
    for c in m.column_dicts():
        assert s.contains_vector(c)
    assert s.dim == rank(m)
