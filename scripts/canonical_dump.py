"""Print eight sha256 lines over fixed sets of exact results, to compare two versions.

Usage: python3 scripts/canonical_dump.py    (imports tests/test_spectral.py,
so pytest must be importable)

The first hash covers:
  - the stdout and exit code of every bundled scenario, with its own field,
    with --field QQ and with --field F101, each with and without --machine;
  - every page entry (representatives, pivots, relations), page map and
    limit row of seeded random filtrations, 25 each over QQ, F2, F101 and
    F2147483647;
  - echelon forms, kernels, images, intersections, preimages and quotient
    coordinates of seeded random matrices over the same fields.

The second hash covers every page entry, page map and limit row of the same
seeded random filtrations moved by a random unitriangular change of basis
(`change_of_basis` in tests/test_spectral.py), 25 each over the four fields.
Their layers are in general not spanned by basis vectors, so this line
covers cycle spaces cut from layers whose basis columns have rows besides
their pivots.

The third hash covers the tensor and Hom builders, over the four fields:
  - `render_complex` of `tensor` and `hom_complex` of seeded random
    complexes, shifted so that odd and negative degrees appear;
  - `render_filtered` and every page entry, page map and limit row of both
    tensor filtrations and of the Hom filtration, with the filtered factor
    as generated and moved by `change_of_basis`;
  - the stdout and exit code of `cli.run` on `build tensor`,
    `build tensor-mirrored` and `build hom` scenarios written from the same
    factors, with and without --machine.

The fourth hash covers every page entry and page map at every position from
p_min - 1 to p_max + 1, for r = r_star + 1 down to 1, queried on one
SpectralSequence per filtration, so later queries meet the values earlier
ones stored; the filtrations are those of the first two hashes, 10 seeds
each over the four fields, as generated and moved by `change_of_basis`.

The fifth hash covers every page entry, page map and limit row of
`from_simplicial` filtrations of seeded nested skeleta: each level is the
k-skeleton of the simplex on a prefix of one vertex order, with the prefix
and k shrinking down the list, and the levels below the top are listed in a
seeded order.  There are 10 seeds over each of the four fields, each reduced
and non-reduced.

The sixth hash covers echelon forms, kernels, images, intersections,
preimages and quotient coordinates of seeded random QQ matrices with
entries Fraction(randint(-4, 4), randint(1, 4)): 30 of random shape, and
10 tall rank-deficient products of a tall and a wide such matrix.

The seventh hash covers the graded builders over QQ, F2 and F101:
`render_complex` of expand(tensor_complex(minimal_free_resolution(A, L),
koszul_complex(A))), and every page entry, page map and limit row of both
`factor_filtration`s of it, for A square-zero in 2 and in 3 variables and
the complete intersection of the squares of 3 variables.

The eighth hash covers the pages below r = 1, where every cycle space is a
layer:
  - E^0 at every position from p_min - 2 to p_max + 2, and Z^r there for
    r = -2, -1 and 0, of the seeded random filtrations of the first two
    hashes, 10 seeds each over the four fields, as generated and moved by
    `change_of_basis`;
  - the stdout and exit code of every bundled scenario with `page 0` and
    `differential 1 0 0` added to its queries, with and without --machine.

Two versions that print the same hash computed the same bytes for all of
it, so a change meant to leave the answers alone can be checked in one run.
scripts/canonical.sha256 holds the eight lines this version prints:

    python3 scripts/canonical_dump.py | diff scripts/canonical.sha256 -
"""

import hashlib
import io
from fractions import Fraction
from itertools import combinations
import pathlib
import random
import sys

from specseq import cli
from specseq.complexes import hom_complex, render_complex, shift, tensor
from specseq.fields import parse_field_token
from specseq.graded import (
    build_quotient_algebra,
    expand,
    factor_filtration,
    koszul_complex,
    minimal_free_resolution,
    tensor_complex,
)
from specseq.filtration import (
    from_simplicial,
    hom_filtration,
    render_filtered,
    tensor_filtration,
)
from specseq.linalg import (
    Matrix,
    echelonize,
    image,
    intersect,
    kernel,
    preimage,
    quotient,
    render_matrix_machine,
)
from specseq.randomized import random_chain_complex, random_filtered_complex
from specseq.simplicial import SimplicialComplex
from specseq.spectral import SpectralSequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
sys.path.insert(0, str(ROOT / "tests"))
from test_spectral import change_of_basis  # noqa: E402
FIELDS = ("QQ", "F2", "F101", "F2147483647")


def render_column(field, col):
    return " ".join(f"{i}:{field.render(col[i])}" for i in sorted(col))


def render_subspace(sub):
    lines = [f"subspace {sub.ambient_dim} pivots {list(sub.pivots)}"]
    lines += [render_column(sub.field, c) for c in sub.basis_columns]
    return lines


def scenario_lines():
    for scn in sorted(SCENARIO_DIR.glob("*.scn")):
        text = scn.read_text()
        for token in (None, "QQ", "F101"):
            for machine in (False, True):
                buf = io.StringIO()
                code = cli.run(text, field_override=token, machine=machine, out=buf)
                yield f"scenario {scn.name} {token} {machine} exit {code}"
                yield buf.getvalue()


def filtration_lines(token, seed):
    field = parse_field_token(token)
    fc, levels = random_filtered_complex(field, random.Random(seed))
    yield f"filtration {token} {seed} levels {sorted(levels.items())}"
    yield from spectral_lines(fc)


def moved_filtration_lines(token, seed):
    field = parse_field_token(token)
    rng = random.Random(seed)
    fc, levels = random_filtered_complex(field, rng)
    yield f"moved {token} {seed} levels {sorted(levels.items())}"
    yield from spectral_lines(change_of_basis(fc, rng))


def entry_lines(r, pos, pres):
    yield f"entry {r} {pos} dim {pres.dim} rep pivots {list(pres.rep_pivots)}"
    yield from (render_column(pres.field, c) for c in pres.rep_columns)
    yield from render_subspace(pres.relations)


def spectral_lines(fc):
    ss = SpectralSequence(fc)
    for r in range(1, ss.r_star + 1):
        page = ss.page(r)
        for pos, pres in sorted(page.entries.items()):
            yield from entry_lines(r, pos, pres)
        for pos, m in sorted(ss.page_map(r).matrices.items()):
            yield f"map {r} {pos}"
            yield render_matrix_machine(m)
    yield from (str(row) for row in ss.limit_comparison(strict=False).rows)


def descending_lines(token, seed):
    field = parse_field_token(token)
    rng = random.Random(seed)
    fc, levels = random_filtered_complex(field, rng)
    yield f"descending {token} {seed} levels {sorted(levels.items())}"
    for version in (fc, change_of_basis(fc, rng)):
        ss = SpectralSequence(version)
        positions = [
            (p, n - p)
            for p in range(version.p_min - 1, version.p_max + 2)
            for n in version.ambient.degrees()
        ]
        for r in range(ss.r_star + 1, 0, -1):
            for pos in positions:
                yield from entry_lines(r, pos, ss.entry(r, *pos))
                yield f"map {r} {pos}"
                yield render_matrix_machine(ss.differential(r, *pos))


def low_page_lines(token, seed):
    field = parse_field_token(token)
    rng = random.Random(seed)
    fc, levels = random_filtered_complex(field, rng)
    yield f"low {token} {seed} levels {sorted(levels.items())}"
    for version in (fc, change_of_basis(fc, rng)):
        ss = SpectralSequence(version)
        for p in range(version.p_min - 2, version.p_max + 3):
            for n in version.ambient.degrees():
                yield from entry_lines(0, (p, n - p), ss.entry(0, p, n - p))
                for r in (-2, -1, 0):
                    yield f"cycles {r} {(p, n - p)}"
                    yield from render_subspace(ss.cycles(r, p, n - p))


def low_scenario_lines():
    for scn in sorted(SCENARIO_DIR.glob("*.scn")):
        text = scn.read_text().replace(
            "end-queries", "page 0\ndifferential 1 0 0\nend-queries"
        )
        for machine in (False, True):
            buf = io.StringIO()
            code = cli.run(text, machine=machine, out=buf)
            yield f"low scenario {scn.name} {machine} exit {code}"
            yield buf.getvalue()


def skeleton_lines(token, seed, reduced):
    field = parse_field_token(token)
    rng = random.Random(seed)
    vertices = [f"v{k}" for k in rng.sample(range(30), rng.randint(3, 6))]
    sizes = sorted(rng.sample(range(1, len(vertices) + 1), rng.randint(2, 4)), reverse=True)
    dims = sorted((rng.randint(0, 2) for _ in sizes), reverse=True)
    levels = [
        SimplicialComplex(vertices[:size], combinations(vertices[:size], min(k + 1, size)))
        for size, k in zip(sizes, dims)
    ]
    rest = levels[1:]
    rng.shuffle(rest)
    yield f"skeleta {token} {seed} {reduced} {vertices} {sizes} {dims}"
    yield from spectral_lines(from_simplicial([levels[0]] + rest, field, reduced=reduced))


PRODUCT_QUERIES = "queries\npage 1\npage 2\ninfinity\ncompare\nend-queries\n"


def product_lines(token, seed):
    field = parse_field_token(token)
    rng = random.Random(seed)
    c = shift(random_chain_complex(field, rng, top_degree=2, max_dim=3), rng.randint(-3, 1))
    d = shift(random_chain_complex(field, rng, top_degree=2, max_dim=3), rng.randint(-2, 2))
    yield f"product {token} {seed}"
    yield render_complex(tensor(c, d))
    yield render_complex(hom_complex(c, d))
    fd, levels = random_filtered_complex(field, rng, top_degree=2, max_dim=3, max_width=3)
    yield f"levels {sorted(levels.items())}"
    for factor in (fd, change_of_basis(fd, rng)):
        builds = (
            ("tensor", tensor_filtration(c, factor), (c, factor)),
            ("tensor-mirrored", tensor_filtration(factor, c), (factor, c)),
            ("hom", hom_filtration(c, factor), (c, factor)),
        )
        for kind, fc, args in builds:
            yield f"build {kind}"
            yield render_filtered(fc)
            yield from spectral_lines(fc)
            body = "\n".join(
                render_complex(x) if x is c else render_filtered(x) for x in args
            )
            text = f"field {token}\nbuild {kind}\n{body}\nend-build\n{PRODUCT_QUERIES}"
            for machine in (False, True):
                buf = io.StringIO()
                code = cli.run(text, machine=machine, out=buf)
                yield f"run {kind} {machine} exit {code}"
                yield buf.getvalue()


# (number of variables, relations, resolution length)
GRADED_ALGEBRAS = (
    (2, ["x^2", "x*y", "y^2"], 4),
    (3, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"], 2),
    (3, ["x^2", "y^2", "z^2"], 3),
)


def graded_lines(token, nvars, relations, length):
    alg = build_quotient_algebra(parse_field_token(token), nvars, relations, names="xyz"[:nvars])
    res = minimal_free_resolution(alg, length)
    ex = expand(tensor_complex(res, koszul_complex(alg)))
    yield f"graded {token} {relations} {length}"
    yield render_complex(ex)
    for factor in (0, 1):
        yield f"factor {factor}"
        yield from spectral_lines(factor_filtration(ex, factor))


def integer_entry(rng):
    return rng.randint(-4, 4)


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_matrix(field, rng, rows, cols, density, draw=integer_entry):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = field.element(draw(rng))
    return Matrix(field, rows, cols, entries)


def matrix_lines(token, seed, draw=integer_entry):
    field = parse_field_token(token)
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 50), rng.randint(1, 50)
    m = random_matrix(field, rng, rows, cols, rng.choice((0.05, 0.15, 0.4)), draw)
    other = random_matrix(field, rng, rows, rng.randint(1, 12), 0.3, draw)
    yield from operation_lines(f"matrix {token} {seed} {rows}x{cols}", m, other)


def tall_lines(seed):
    field = parse_field_token("QQ")
    rng = random.Random(f"tall:{seed}")
    rows, inner, cols = rng.randint(30, 60), rng.randint(2, 10), rng.randint(12, 25)
    m = random_matrix(field, rng, rows, inner, 0.4, fraction_entry) @ random_matrix(
        field, rng, inner, cols, 0.4, fraction_entry
    )
    other = random_matrix(field, rng, rows, rng.randint(1, 12), 0.3, fraction_entry)
    yield from operation_lines(f"tall {seed} {rows}x{inner}x{cols}", m, other)


def operation_lines(head, m, other):
    field = m.field
    ech, r = echelonize(m)
    yield f"{head} rank {r}"
    yield render_matrix_machine(ech)
    yield from render_subspace(kernel(m))
    img, img2 = image(m), image(other)
    cap = intersect(img, img2)
    yield from render_subspace(cap)
    yield from render_subspace(preimage(m, img2))
    q = quotient(img, cap)
    for c in img.basis_columns:
        yield " ".join(field.render(x) for x in q.coordinates(c))


def main():
    digest = hashlib.sha256()
    for line in scenario_lines():
        digest.update(line.encode() + b"\n")
    for token in FIELDS:
        for seed in range(25):
            for line in filtration_lines(token, seed):
                digest.update(line.encode() + b"\n")
        for seed in range(30):
            for line in matrix_lines(token, seed):
                digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    moved = hashlib.sha256()
    for token in FIELDS:
        for seed in range(25):
            for line in moved_filtration_lines(token, seed):
                moved.update(line.encode() + b"\n")
    print(moved.hexdigest())
    products = hashlib.sha256()
    for token in FIELDS:
        for seed in range(8):
            for line in product_lines(token, seed):
                products.update(line.encode() + b"\n")
    print(products.hexdigest())
    descending = hashlib.sha256()
    for token in FIELDS:
        for seed in range(10):
            for line in descending_lines(token, seed):
                descending.update(line.encode() + b"\n")
    print(descending.hexdigest())
    skeleta = hashlib.sha256()
    for token in FIELDS:
        for seed in range(10):
            for reduced in (True, False):
                for line in skeleton_lines(token, seed, reduced):
                    skeleta.update(line.encode() + b"\n")
    print(skeleta.hexdigest())
    fractions = hashlib.sha256()
    for seed in range(30):
        for line in matrix_lines("QQ", seed, fraction_entry):
            fractions.update(line.encode() + b"\n")
    for seed in range(10):
        for line in tall_lines(seed):
            fractions.update(line.encode() + b"\n")
    print(fractions.hexdigest())
    graded = hashlib.sha256()
    for token in ("QQ", "F2", "F101"):
        for nvars, relations, length in GRADED_ALGEBRAS:
            for line in graded_lines(token, nvars, relations, length):
                graded.update(line.encode() + b"\n")
    print(graded.hexdigest())
    low = hashlib.sha256()
    for token in FIELDS:
        for seed in range(10):
            for line in low_page_lines(token, seed):
                low.update(line.encode() + b"\n")
    for line in low_scenario_lines():
        low.update(line.encode() + b"\n")
    print(low.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
