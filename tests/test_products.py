"""Tensor and Hom complexes and their filtrations, checked entry by entry.

Every expectation here is addressed by basis label (i, a, b) and computed
from the factors' own matrices, so none of it shares code with the block
layout of the builders.
"""

import random

import pytest

from specseq.complexes import hom_complex, shift, tensor
from specseq.filtration import hom_filtration, tensor_filtration
from specseq.linalg import Subspace
from specseq.randomized import random_chain_complex, random_filtered_complex
from test_spectral import FIELDS, change_of_basis


def factor(field, rng):
    """A small random complex shifted so that negative and odd degrees occur."""
    c = random_chain_complex(field, rng, top_degree=2, max_dim=3)
    return shift(c, rng.randint(-3, 1))


def boundary(x, n, label):
    """d_n of the basis vector of x_n with this label, as {label: FieldElement}."""
    m, col = x.diff(n), x.term_labels(n).index(label)
    rows = x.term_labels(n - 1)
    return {rows[r]: m.entry(r, col) for r in range(m.rows) if m.entry(r, col)}


def accumulate(want, label, value):
    want[label] = want[label] + value if label in want else value


def check_product(product, c, d, n, j_of, expected_boundary):
    labels = [
        (i, a, b)
        for i in range(c.lo, c.hi + 1)
        for a in c.term_labels(i)
        for b in d.term_labels(j_of(n, i))
    ]
    assert product.term_labels(n) == tuple(labels)
    nonzero = 0
    for label in labels:
        want = {}
        for key, value in expected_boundary(n, label):
            accumulate(want, key, value)
        want = {key: value for key, value in want.items() if value}
        assert boundary(product, n, label) == want
        nonzero += len(want)
    return nonzero


def tensor_boundary(c, d):
    # d(a (x) b) = d_c(a) (x) b + (-1)^i a (x) d_d(b)
    def expected(n, label):
        i, a, b = label
        for a2, v in boundary(c, i, a).items():
            yield (i - 1, a2, b), v
        for b2, w in boundary(d, n - i, b).items():
            yield (i, a, b2), w * (-1 if i % 2 else 1)

    return expected


def hom_boundary(c, d):
    # d(f) = d_d o f - (-1)^n f o d_c, with (i, a, b) the map a -> b
    def expected(n, label):
        i, a, b = label
        for b2, w in boundary(d, i + n, b).items():
            yield (i, a, b2), w
        for k in c.term_labels(i + 1):
            v = boundary(c, i + 1, k).get(a)
            if v:
                yield (i + 1, k, b), v * (1 if n % 2 else -1)

    return expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_and_hom_entries_follow_sign_rules(field):
    nonzero = 0
    for seed in range(8):
        rng = random.Random(seed)
        c, d = factor(field, rng), factor(field, rng)
        t = tensor(c, d)
        for n in range(c.lo + d.lo - 1, c.hi + d.hi + 2):
            nonzero += check_product(t, c, d, n, lambda n, i: n - i, tensor_boundary(c, d))
        h = hom_complex(c, d)
        for n in range(d.lo - c.hi - 1, d.hi - c.lo + 2):
            nonzero += check_product(h, c, d, n, lambda n, i: i + n, hom_boundary(c, d))
    assert nonzero


def label_product(position, i, u, u_labels, v, v_labels):
    """u (x) v in the block of first index i, placed by basis label."""
    return {
        position[(i, u_labels[x], v_labels[y])]: s * t
        for x, s in u.items()
        for y, t in v.items()
    }


def expected_layer(kind, plain, fd, ambient, p, n):
    position = {label: k for k, label in enumerate(ambient.term_labels(n))}
    inner = fd.ambient
    cols = []
    if kind == "mirrored":
        for i in inner.degrees():
            for w in fd.layer(p, i).basis_columns:
                for y in range(plain.dim(n - i)):
                    cols.append(
                        label_product(
                            position, i, w, inner.term_labels(i), {y: 1},
                            plain.term_labels(n - i),
                        )
                    )
    else:
        for i in plain.degrees():
            j = i + n if kind == "hom" else n - i
            for x in range(plain.dim(i)):
                for w in fd.layer(p, j).basis_columns:
                    cols.append(
                        label_product(
                            position, i, {x: 1}, plain.term_labels(i), w,
                            inner.term_labels(j),
                        )
                    )
    return Subspace.spanned_by_columns(ambient.field, ambient.dim(n), cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_product_filtration_layers_are_label_products(field):
    moved_layers = 0
    for seed in range(6):
        rng = random.Random(100 + seed)
        plain = factor(field, rng)
        fd, _ = random_filtered_complex(field, rng, top_degree=2, max_dim=3, max_width=3)
        moved = change_of_basis(fd, rng)
        moved_layers += sum(
            any(len(col) > 1 for col in moved.layer(p, n).basis_columns)
            for p in moved.p_range
            for n in moved.ambient.degrees()
        )
        for filtered in (fd, moved):
            builds = (
                ("tensor", tensor_filtration(plain, filtered), tensor(plain, filtered.ambient)),
                ("mirrored", tensor_filtration(filtered, plain), tensor(filtered.ambient, plain)),
                ("hom", hom_filtration(plain, filtered), hom_complex(plain, filtered.ambient)),
            )
            for kind, fc, ambient in builds:
                assert fc.ambient == ambient
                assert (fc.p_min, fc.p_max) == (filtered.p_min, filtered.p_max)
                for p in fc.p_range:
                    for n in ambient.degrees():
                        want = expected_layer(kind, plain, filtered, ambient, p, n)
                        assert fc.layer(p, n) == want
    assert moved_layers
