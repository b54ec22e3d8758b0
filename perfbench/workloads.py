"""The benchmark's workloads: inputs made from a seed, one instance, checks.

Each workload is a closed loop with one client: run.py runs one
instance at a time and starts the next when it returns.  A workload offers

- ``make_inputs(seed)``: the instances of one round, the same for a seed;
- ``warm_up(inputs)``: the instances of a small untimed run before timing;
- ``run(spec)``: one instance, returning (record, `clock()` when the E^1
  page was complete); the record is everything the checks read;
- ``expected(spec)``: the oracle's answers, computed once per instance;
- ``check(spec, record, expected)``: a list of problems, empty when right.

Every answer is checked against the barcode oracle (oracle.py), which
shares no code with specseq's linear algebra or spectral sequence, and
against closed forms where the input has one.
"""

import io
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from specseq import cli, graded, linalg
from specseq.complexes import ChainComplex
from specseq.fields import QQ, PrimeField
from specseq.filtration import from_basis_levels, from_simplicial
from specseq.linalg import Matrix
from specseq.randomized import random_filtered_complex
from specseq.simplicial import SimplicialComplex
from specseq.spectral import SpectralSequence

from oracle import Barcode, Cell, page_mismatches, weighted_table

F101 = PrimeField(101)

# Wall-clock seconds: what a user waits for, and the only clock in which two
# page workers running side by side can show a gain.  Time the hypervisor
# gives the vCPUs to other machines ("steal") also passes on this clock;
# run.py reads it around every instance and takes it out.
clock = time.perf_counter


def _values(matrix):
    """Entries of a specseq Matrix as plain int / Fraction values, whether
    the matrix stores FieldElement objects or raw scalars."""
    return {key: getattr(v, "value", v) for key, v in matrix.entries.items()}


def _limit_rows(barcode, degrees):
    """The limit comparison's rows (n, p, E^inf, gr_p H_n, ok) from the bars."""
    einf_dims = barcode.page_dims(barcode.r_star)
    rows = []
    for n in degrees:
        for p in range(barcode.p_min, barcode.p_max + 1):
            einf = einf_dims.get((p, n - p), 0)
            gr = barcode.graded_homology(n, p)
            rows.append((n, p, einf, gr, einf == gr))
    return rows


def _complex_barcode(chain, levels, weights, modulus):
    """Barcode of a specseq ChainComplex with a level (and weight) per basis vector."""
    cells, index, boundary = [], {}, []
    for n in chain.degrees():
        for k in range(chain.dim(n)):
            index[(n, k)] = len(cells)
            cells.append(Cell(n, levels[n][k], weights[n][k] if weights else None))
            boundary.append({})
    for n in chain.degrees():
        for (row, col), value in _values(chain.diff(n)).items():
            boundary[index[(n, col)]][index[(n - 1, row)]] = value
    return Barcode(cells, boundary, modulus)


class Workload:
    """Defaults for the hooks only some workloads need."""

    def failed(self, record):
        """True when the program reported failure instead of an answer."""
        return False

    def compact(self, spec, record):
        """Checks that need the full record, and the record the oracle
        checks keep; run right after each instance, outside its timing."""
        return [], record

    def count(self, tracer, record):
        """Counters read from a traced instance's record."""


# ---------------------------------------------------------------------------
# graded-cli


class FirstWriteBuffer(io.StringIO):
    """Captures CLI output and the clock at its first write."""

    first = None

    def write(self, text):
        if self.first is None and text:
            self.first = clock()
        return super().write(text)


# (name, algebra, variables, resolution length, filtered factor)
GRADED_CASES = (
    ("sq2-L4-f0", "square-zero", 2, 4, 0),
    ("sq2-L4-f1", "square-zero", 2, 4, 1),
    ("sq2-L5-f0", "square-zero", 2, 5, 0),
    ("ci2-L4-f1", "complete-intersection", 2, 4, 1),
    ("ci2-L5-f0", "complete-intersection", 2, 5, 0),
    ("ci2-L5-f1", "complete-intersection", 2, 5, 1),
    ("sq3-L2-f0", "square-zero", 3, 2, 0),
)
VARIABLES = ("x", "y", "z")


def _rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _invertible(rng, size, p):
    while True:
        m = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if _rank_mod(m, p) == size:
            return m


def _poly_text(terms):
    """'c*x^2 + c*x*y' from {exponent tuple: coefficient}, zeros left out."""
    parts = []
    for expo, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        factors = []
        for name, e in zip(VARIABLES, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def graded_relations(kind, nvars, rng, p=101):
    """Relations of the algebra in a random linear disguise.

    square-zero: a random basis of all quadrics, so the ideal is (x_1..x_n)^2
    whatever the seed.  complete-intersection: the squares of n random
    independent linear forms, a regular sequence whose quotient has Hilbert
    function (1, n, ..., 1) for every seed.
    """
    quad = _exponents(nvars, 2)
    if kind == "square-zero":
        m = _invertible(rng, len(quad), p)
        return [_poly_text(dict(zip(quad, row))) for row in m]
    a = _invertible(rng, nvars, p)
    relations = []
    for row in a:
        terms = {}
        for k in range(nvars):
            for l in range(k, nvars):
                e = tuple(int(i == k) + int(i == l) for i in range(nvars))
                c = row[k] * row[l] * (1 if k == l else 2)
                terms[e] = c % p
        relations.append(_poly_text(terms))
    return relations


def _exponents(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _exponents(nvars - 1, degree - e)]


def graded_queries(length, factor):
    image = f"image-length 2 {length} 0" if factor == 0 else f"image-length 1 1 {length - 1}"
    return ["page 1", image, "infinity", "compare"]


def graded_scenario(nvars, relations, length, factor):
    lines = ["field F101", "", "build graded", "vars " + " ".join(VARIABLES[:nvars])]
    lines += [f"relation {rel}" for rel in relations]
    lines += [f"length {length}", f"factor {factor}", "end-build", "", "queries"]
    lines += graded_queries(length, factor)
    lines += ["end-queries", ""]
    return "\n".join(lines)


class GradedSpec:
    def __init__(self, name, kind, nvars, length, factor, relations):
        self.name = name
        self.kind = kind
        self.nvars = nvars
        self.length = length
        self.factor = factor
        self.relations = relations
        self.text = graded_scenario(nvars, relations, length, factor)


def parse_cli_output(text):
    """Pages, image-length lines and compare rows from human CLI output."""
    lines = text.splitlines()
    out = {"pages": {}, "images": {}, "compare": [], "compare_ok": None}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("page ") or line.startswith("infinity (r="):
            key = int(line.split()[1]) if line.startswith("page ") else ("inf", int(line[12:-1]))
            table = {}
            i += 1
            if lines[i] == "(empty)":
                i += 1
            else:
                ps = [int(tok[2:]) for tok in lines[i].split()]
                i += 1
                while i < len(lines) and lines[i].startswith("q="):
                    toks = lines[i].split()
                    q = int(toks[0][2:])
                    if len(toks) - 1 != len(ps):
                        raise ValueError(f"ragged page row {lines[i]!r}")
                    for p, cell in zip(ps, toks[1:]):
                        if cell != ".":
                            table[(p, q)] = _parse_cell(cell)
                    i += 1
            out["pages"][key] = table
        elif line.startswith("image-length "):
            toks = line.split()
            r, p, q, dim = (int(t) for t in toks[1:5])
            split = dict(_degree_count(t) for t in toks[5:])
            if split and sum(split.values()) != dim:
                raise ValueError(f"image split does not add up: {line!r}")
            out["images"][(r, p, q)] = split if dim else {}
            i += 1
        elif line in ("compare ok", "compare FAIL"):
            out["compare_ok"] = line == "compare ok"
            i += 1
        else:
            n, p, einf, gr, flag = line.split()
            out["compare"].append((int(n), int(p), int(einf), int(gr), flag == "ok"))
            i += 1
    return out


def _degree_count(token):
    d, c = token.split(":")
    return int(d), int(c)


def _parse_cell(cell):
    dim, _, rest = cell.partition("(")
    split = dict(_degree_count(t) for t in rest.rstrip(")").split(",")) if rest else {}
    if sum(split.values()) != int(dim):
        raise ValueError(f"cell {cell!r} does not add up")
    return split


class GradedCli(Workload):
    name = "graded-cli"
    threads = 2

    def failed(self, record):
        return record[0] != 0

    def count(self, tracer, record):
        tracer.add("cli.out_bytes", len(record[1].encode()))

    def make_inputs(self, seed):
        specs = []
        for k, (name, kind, nvars, length, factor) in enumerate(GRADED_CASES):
            rng = random.Random(f"{seed}:graded-cli:{k}")
            relations = graded_relations(kind, nvars, rng)
            specs.append(GradedSpec(name, kind, nvars, length, factor, relations))
        return specs

    def warm_up(self, specs):
        return [GradedSpec("warm-up", "square-zero", 2, 2, 0, specs[0].relations)]

    def run(self, spec):
        out = FirstWriteBuffer()
        code = cli.run(spec.text, threads=self.threads, out=out)
        return (code, out.getvalue()), out.first

    def expected(self, spec):
        alg = graded.build_quotient_algebra(
            F101, spec.nvars, spec.relations, names=VARIABLES[: spec.nvars]
        )
        res = graded.minimal_free_resolution(alg, spec.length)
        ex = graded.expand(graded.tensor_complex(res, graded.koszul_complex(alg)))
        levels, weights = {}, {}
        for n in ex.degrees():
            labels = ex.term_labels(n)
            # tensor_complex labels start with the resolution index i
            levels[n] = [lab.gen[0] if spec.factor == 0 else n - lab.gen[0] for lab in labels]
            weights[n] = [lab.degree for lab in labels]
        bc = _complex_barcode(ex, levels, weights, 101)
        return bc, list(ex.degrees())

    def check(self, spec, record, expected):
        code, text = record
        bc, degrees = expected
        if code != 0:
            return [f"{spec.name}: exit code {code}"]
        try:
            got = parse_cli_output(text)
        except (ValueError, IndexError) as exc:
            return [f"{spec.name}: unreadable output ({exc})"]
        problems = []
        pages = got["pages"]
        if set(pages) != {1, ("inf", bc.r_star)}:
            problems.append(f"{spec.name}: pages {sorted(map(str, pages))}")
        problems += page_mismatches(f"{spec.name} E1", pages.get(1, {}), weighted_table(bc.page(1)))
        problems += page_mismatches(
            f"{spec.name} Einf",
            pages.get(("inf", bc.r_star), {}),
            weighted_table(bc.page(bc.r_star)),
        )
        for (r, p, q), split in got["images"].items():
            want = dict(sorted(bc.image_rank(r, p, q).items()))
            if split != want:
                problems.append(f"{spec.name} image-length {r} {p} {q}: {split} vs {want}")
        if len(got["images"]) != 1:
            problems.append(f"{spec.name}: expected one image-length line")
        if got["compare"] != _limit_rows(bc, degrees) or got["compare_ok"] is not True:
            problems.append(f"{spec.name}: limit comparison differs from the oracle")
        if spec.kind == "square-zero" and spec.nvars == 2 and spec.factor == 0:
            problems += page_mismatches(
                f"{spec.name} E1 closed form", pages.get(1, {}), square_zero_e1(spec.length)
            )
        return problems


def square_zero_e1(length):
    """E^1 of k[x,y]/(x,y)^2 filtered by resolution index:
    E^1(p, q) = 2^p * (1, 3, 2)_q in internal degree p + (0, 2, 3)_q."""
    return {
        (p, q): {p + (0, 2, 3)[q]: 2**p * (1, 3, 2)[q]}
        for p in range(length + 1)
        for q in range(3)
    }


# ---------------------------------------------------------------------------
# simplicial-qq


# vertex counts of the nested 2-skeleta, largest first.  A round is short
# (about 2 s), so a 30-second run holds over a dozen rounds and every
# instance's median rests on as many samples.  Only (9, 3) hands the
# rational elimination more than DENSE_COLUMN_LIMIT = 64 columns (84
# triangles on 9 vertices), so it alone takes the sparse route (7 `_py_rcef`
# calls); the others stay on the dense rational route.
SIMPLICIAL_CHAINS = (
    (9, 3),
    (7, 5, 3),
    (6, 5, 3),
    (7, 2),
    (6, 5),
    (5, 4, 3, 2),
    (6, 4, 2),
    (6, 3),
    (5, 3, 2),
)


def _skeleton(vertices):
    size = min(3, len(vertices))
    return SimplicialComplex(vertices, [list(f) for f in combinations(vertices, size)])


class SimplicialSpec:
    """Nested 2-skeleta on the first sizes[k] vertices of one vertex order.

    Every choice of nested vertex sets gives an isomorphic filtered complex,
    but which vertices are chosen fixes the order of the faces, and with it
    the order of the rational eliminations: that alone moved an instance's
    time by 12% from one choice to another.  So the sets are prefixes and
    the seed only names the vertices.
    """

    def __init__(self, sizes, names):
        self.sizes = sizes
        self.subsets = [list(range(size)) for size in sizes]
        self.complexes = [_skeleton([names[i] for i in s]) for s in self.subsets]
        self.name = "skeleta-" + "-".join(map(str, sizes))


def vertex_names(count, rng):
    return [f"v{k}" for k in rng.sample(range(10 * count), count)]


def skeleton_barcode(subsets, modulus=None):
    """Oracle input built from the vertex sets alone: the faces of each
    2-skeleton, a face's level being the index of the smallest complex
    holding it (the smallest complex has level 0)."""
    sets = [set(s) for s in subsets]
    faces = [()]
    for size in range(1, 4):
        faces += list(combinations(subsets[0], size))
    index = {f: k for k, f in enumerate(faces)}
    cells, boundary = [], []
    last = len(subsets) - 1
    for f in faces:
        deepest = max(k for k, s in enumerate(sets) if s.issuperset(f))
        cells.append(Cell(len(f) - 1, last - deepest))
        boundary.append(
            {index[f[:l] + f[l + 1 :]]: (-1) ** l for l in range(len(f))}
        )
    return Barcode(cells, boundary, modulus)


class SimplicialQQ(Workload):
    name = "simplicial-qq"
    field = QQ

    def make_inputs(self, seed):
        specs = []
        for k, sizes in enumerate(SIMPLICIAL_CHAINS):
            rng = random.Random(f"{seed}:simplicial-qq:{k}")
            specs.append(SimplicialSpec(sizes, vertex_names(sizes[0], rng)))
        return specs

    def warm_up(self, specs):
        return [SimplicialSpec((6, 4), vertex_names(6, random.Random("warm-up")))]

    def run(self, spec):
        fc = from_simplicial(spec.complexes, self.field)
        ss = SpectralSequence(fc)
        page1 = ss.page(1).dims()
        first = clock()
        inf = ss.infinity_page().dims()
        report = ss.limit_comparison(strict=False)
        return (page1, ss.r_star, inf, list(report.rows), report.ok), first

    def expected(self, spec):
        modulus = None if self.field is QQ else self.field.characteristic
        return skeleton_barcode(spec.subsets, modulus)

    def check(self, spec, record, bc):
        page1, r_star, inf, rows, ok = record
        problems = []
        if r_star != bc.r_star:
            problems.append(f"{spec.name}: r_star {r_star} vs {bc.r_star}")
        problems += page_mismatches(f"{spec.name} E1", page1, bc.page_dims(1))
        problems += page_mismatches(f"{spec.name} Einf", inf, bc.page_dims(bc.r_star))
        degrees = range(-1, 3)
        if rows != _limit_rows(bc, degrees) or not ok:
            problems.append(f"{spec.name}: limit comparison differs from the oracle")
        # the 2-skeleton of a simplex on N vertices has reduced homology only
        # in degree 2, of rank C(N-1, 3)
        totals = {}
        for (p, q), d in inf.items():
            totals[p + q] = totals.get(p + q, 0) + d
        want = {2: comb(spec.sizes[0] - 1, 3)}
        if totals != want:
            problems.append(f"{spec.name}: E-infinity totals {totals}, closed form {want}")
        return problems


# ---------------------------------------------------------------------------
# random-sweep


RANDOM_FIELDS = (QQ, F101)
RANDOM_WIDTHS = (1, 2, 3, 4)
RANDOM_PER_BUCKET = 20
RANDOM_DEGREES = 4  # top_degree=3: terms in degrees 0..3


class RandomSpec:
    def __init__(self, name, field, fc, levels):
        self.name = name
        self.field = field
        self.fc = fc
        self.levels = levels


def random_shapes(field):
    """random_filtered_complex instances, the same number for every
    filtration width, all with terms in four degrees.

    These come from a fixed generator seed: the width and the dimensions
    set how many pages, page maps and subspace operations an instance has,
    and a seed-dependent mix of them made a round's time vary by 15% from
    seed to seed.  The run's seed enters through `rescaled`.
    """
    rng = random.Random(f"random-sweep:{field.token()}")
    want = {w: [] for w in RANDOM_WIDTHS}
    while any(len(v) < RANDOM_PER_BUCKET for v in want.values()):
        fc, levels = random_filtered_complex(field, rng)
        width = fc.p_max - fc.p_min + 1
        degrees = fc.ambient.hi - fc.ambient.lo + 1
        if degrees == RANDOM_DEGREES and len(want.get(width, ())) < RANDOM_PER_BUCKET:
            want[width].append((fc, levels))
    return want


def _unit(field, rng):
    if field is QQ:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
    return rng.randrange(1, field.characteristic)


def rescaled(fc, levels, rng):
    """The same filtered complex on a basis of random nonzero multiples of the
    old one: every differential entry d[i, j] becomes d[i, j] * s_j / s_i."""
    amb = fc.ambient
    field = amb.field
    scale = {n: [field.element(_unit(field, rng)) for _ in range(amb.dim(n))] for n in amb.degrees()}
    diffs = {}
    for n in amb.degrees():
        d = amb.diff(n)
        entries = {
            (i, j): v * scale[n][j] / scale[n - 1][i] for (i, j), v in d.entries.items()
        }
        diffs[n] = Matrix(field, d.rows, d.cols, entries)
    labels = {n: amb.term_labels(n) for n in amb.degrees()}
    return from_basis_levels(ChainComplex(field, labels, diffs), levels)


def random_instances(seed):
    """Fixed shapes, rescaled by the seed, alternating QQ and F101."""
    shapes = {field: random_shapes(field) for field in RANDOM_FIELDS}
    rngs = {field: random.Random(f"{seed}:random-sweep:{field.token()}") for field in RANDOM_FIELDS}
    specs = []
    for k in range(RANDOM_PER_BUCKET):
        for width in RANDOM_WIDTHS:
            for field in RANDOM_FIELDS:
                fc, levels = shapes[field][width][k]
                fc = rescaled(fc, levels, rngs[field])
                specs.append(RandomSpec(f"{field.token()}-w{width}-{k}", field, fc, levels))
    return specs


def _compose(b, a, modulus):
    """Entries of b @ a from {(i, j): value} dicts, zeros dropped."""
    by_row = {}
    for (k, j), v in a.items():
        by_row.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), w in b.items():
        for j, v in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + w * v
    if modulus is not None:
        return {key: v for key, v in out.items() if v % modulus}
    return {key: v for key, v in out.items() if v}


class RandomSweep(Workload):
    name = "random-sweep"

    def make_inputs(self, seed):
        return random_instances(seed)

    def warm_up(self, specs):
        return specs[:8]

    def run(self, spec):
        fc = spec.fc
        ss = SpectralSequence(fc)
        page1 = ss.page(1).dims()
        first = clock()
        positions = [(p, n - p) for p in fc.p_range for n in fc.ambient.degrees()]
        diffs = {}
        turning = []
        for r in range(1, ss.r_star + 1):
            for p, q in positions:
                out = ss.differential(r, p, q)
                arriving = ss.differential(r, p + r, q - r + 1)
                diffs[(r, p, q)] = out
                after = ss.entry(r + 1, p, q).dim
                turned = linalg.kernel(out).dim - linalg.rank(arriving)
                turning.append((r, p, q, after, turned))
        report = ss.limit_comparison(strict=False)
        return (page1, ss.r_star, turning, diffs, list(report.rows), report.ok), first

    def compact(self, spec, record):
        """Check d^r o d^r = 0 on the page maps, then drop them."""
        page1, r_star, turning, diffs, rows, ok = record
        modulus = None if spec.field is QQ else spec.field.characteristic
        problems = []
        for (r, p, q), d in diffs.items():
            back = diffs.get((r, p - r, q + r - 1))
            if back is None or d.is_zero or back.is_zero:
                continue
            if back.cols != d.rows or _compose(_values(back), _values(d), modulus):
                problems.append(f"{spec.name}: d^{r} o d^{r} is not zero at ({p},{q})")
        return problems, (page1, r_star, turning, rows, ok)

    def expected(self, spec):
        modulus = None if spec.field is QQ else spec.field.characteristic
        bc = _complex_barcode(spec.fc.ambient, spec.levels, None, modulus)
        return bc, list(spec.fc.ambient.degrees())

    def check(self, spec, record, expected):
        page1, r_star, turning, rows, ok = record
        bc, degrees = expected
        problems = []
        if r_star != bc.r_star:
            problems.append(f"{spec.name}: r_star {r_star} vs {bc.r_star}")
        problems += page_mismatches(f"{spec.name} E1", page1, bc.page_dims(1))
        pages = {}
        for r, p, q, after, turned in turning:
            if after != turned:
                problems.append(f"{spec.name}: turning identity fails at r={r} ({p},{q})")
            if after:
                pages.setdefault(r + 1, {})[(p, q)] = after
        for r in range(2, r_star + 2):
            problems += page_mismatches(f"{spec.name} E{r}", pages.get(r, {}), bc.page_dims(r))
        if rows != _limit_rows(bc, degrees) or not ok:
            problems.append(f"{spec.name}: limit comparison differs from the oracle")
        return problems


WORKLOADS = {w.name: w for w in (GradedCli(), SimplicialQQ(), RandomSweep())}
