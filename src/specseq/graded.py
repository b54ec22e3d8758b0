"""Finite-dimensional graded quotient algebras and their homological toolkit.

Algebras are quotients k[x_1..x_n]/I by homogeneous relations, built one
degree at a time by echelonizing the relation span inside the monomial
basis; construction fails unless some degree empties out, which certifies
finite dimensionality.  On top of that sit free modules with twisted
generators, module maps with homogeneous polynomial entries, Koszul
complexes, minimal free resolutions, tensor products of graded complexes,
and the expansion of all of this into plain vector-space chain complexes
whose basis labels remember generator, monomial, and internal degree.

Monomials are exponent tuples ordered by descending lexicographic order
within each degree, so the leading term of a reduced polynomial is its
first monomial.

The one product is `GradedAlgebra.times`.  A module map is its columns, as a
`Matrix` is, and `GradedModuleMap.images`, the one expansion, serves
`expanded_matrix` and `expand`; the resolution gets m K from the maps "multiply by x_i".
"""

from collections import Counter, namedtuple
from itertools import combinations

from .complexes import ChainComplex
from .errors import NotFiniteDimensional, ParseError
from .filtration import from_basis_levels
from .linalg import (
    Matrix,
    Subspace,
    _add_multiple,
    image,
    kernel,
    quotient,
)


def monomials(num_vars, degree):
    """Exponent tuples of the given total degree, descending lexicographic."""
    if degree < 0:
        return []
    if num_vars == 0:
        return [()] if degree == 0 else []
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return out


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_mul(a, b, p=0):
    """Product of two polynomials of raw coefficients; p as in _add_multiple."""
    out = {}
    for ma, ca in a.items():
        _add_multiple(out, ca, {monomial_mul(ma, mb): cb for mb, cb in b.items()}, p)
    return out


def poly_degree(poly):
    """Common total degree of a homogeneous polynomial; None for zero."""
    degs = {sum(m) for m in poly}
    if not degs:
        return None
    if len(degs) != 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop()


def variable_names(num_vars, names=None):
    """The variable names, x1, x2, ... by default: one per variable, none repeated."""
    if not names:
        return [f"x{i + 1}" for i in range(num_vars)]
    names = list(names)
    if len(names) != num_vars:
        raise ValueError("need one name per variable")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"repeated variable {name!r}")
    return names


def parse_poly(field, num_vars, text, names=None):
    """Parse "c*x^a*y^b + ..." into a monomial-keyed coefficient dict."""
    names = variable_names(num_vars, names)
    index = {nm: i for i, nm in enumerate(names)}
    s = text.replace("−", "-").strip()
    if not s:
        raise ParseError("empty polynomial")
    out = {}
    pos = 0
    while pos < len(s):
        sign = 1
        seen = False
        while pos < len(s) and (s[pos] in "+-" or s[pos].isspace()):
            if s[pos] == "-":
                sign = -sign
                seen = True
            elif s[pos] == "+":
                seen = True
            pos += 1
        end = pos
        last = ""
        while end < len(s):
            ch = s[end]
            # a sign directly after '^' belongs to the exponent, not a new term
            if ch in "+-" and last != "^":
                break
            if not ch.isspace():
                last = ch
            end += 1
        term = s[pos:end].strip()
        pos = end
        if not term:
            raise ParseError(f"dangling sign in polynomial {text!r}")
        coef = sign
        expo = [0] * num_vars
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {term!r}")
            if factor[0].isdigit():
                coef = coef * field.parse(factor).value
                continue
            name, sep, power = factor.partition("^")
            name = name.strip()
            if name not in index:
                raise ParseError(f"unknown variable {name!r}")
            if sep and not power.strip():
                raise ParseError(f"missing exponent in {factor!r}")
            try:
                e = int(power) if power else 1
            except ValueError:
                raise ParseError(f"bad exponent in {factor!r}") from None
            if e < 0:
                raise ParseError(f"negative exponent in {factor!r}")
            expo[index[name]] += e
        _add_multiple(out, coef, {tuple(expo): 1}, field.characteristic)
    return out


def render_poly(poly, names):
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, key=lambda m: (sum(m),) + tuple(-e for e in m)):
        c = poly[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        cs = str(c)
        if factors and cs == "1":
            cs = ""
        elif factors and cs == "-1":
            cs = "-"
        body = "*".join(factors)
        if cs and body:
            parts.append(f"{cs}{'' if cs == '-' else '*'}{body}")
        else:
            parts.append(cs or body)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


class GradedAlgebra:
    """Standard-graded quotient k[x_1..x_n]/I with a finite monomial basis."""

    __slots__ = (
        "field",
        "num_vars",
        "names",
        "relations",
        "top_degree",
        "_basis",
        "_reducers",
        "_products",
    )

    def __init__(self, field, num_vars, names, relations, basis, reducers, top_degree):
        self.field = field
        self.num_vars = num_vars
        self.names = tuple(names)
        self.relations = tuple(relations)
        self.top_degree = top_degree
        self._basis = basis
        self._reducers = reducers
        self._products = {}

    def basis(self, d):
        return self._basis.get(d, ())

    def dimension(self, d):
        return len(self.basis(d))

    def total_dim(self):
        return sum(len(v) for v in self._basis.values())

    def dims(self):
        return tuple(len(self._basis[d]) for d in range(self.top_degree + 1))

    def reduce(self, poly):
        """Canonical representative supported on standard monomials."""
        by_degree = {}
        for mono, c in poly.items():
            by_degree.setdefault(sum(mono), {})[mono] = c
        out = {}
        for d, part in by_degree.items():
            if d > self.top_degree:
                continue
            reducer, all_monos, mono_pos = self._reducers[d]
            if reducer.is_zero:
                out.update(part)
                continue
            vec = {mono_pos[m]: c for m, c in part.items()}
            for i, c in reducer.residual(vec).items():
                out[all_monos[i]] = c
        return out

    def times(self, poly, mono):
        """Normal form of a reduced polynomial times a monomial.

        reduce is linear, so this sums the normal forms of t * mono over
        poly's terms t.  Each is kept per pair (t, mono) and stored in one
        dict assignment, so threads sharing the algebra see it whole."""
        p = self.field.characteristic
        products = self._products
        out = {}
        for t, c in poly.items():
            key = (t, mono)
            form = products.get(key)
            if form is None:
                form = self.reduce({monomial_mul(t, mono): 1})
                products[key] = form
            _add_multiple(out, c, form, p)
        return out

    def __repr__(self):
        return (
            f"<GradedAlgebra {self.num_vars} vars dims {self.dims()} "
            f"over {self.field}>"
        )


def relation_degree(poly):
    """Degree of a relation; ValueError for a zero, constant or inhomogeneous one."""
    if not poly:
        raise ValueError("zero relation")
    deg = poly_degree(poly)
    if deg == 0:
        raise ValueError("constant relation collapses the algebra")
    return deg


def build_quotient_algebra(field, num_vars, gens, top_bound=64, names=None):
    """Quotient by homogeneous relations, degree by degree.

    Stops at the first degree whose basis is empty; since the relation span
    is an ideal slice, every higher degree is then empty too.  Raises
    NotFiniteDimensional if no degree up to top_bound empties out.
    """
    names = variable_names(num_vars, names)
    relations = []
    by_degree = {}
    for g in gens:
        poly = (
            parse_poly(field, num_vars, g, names)
            if isinstance(g, str)
            else _clean_poly(field, g)
        )
        relations.append(poly)
        by_degree.setdefault(relation_degree(poly), []).append(poly)
    basis = {}
    reducers = {}
    d = 0
    while True:
        if d > top_bound:
            raise NotFiniteDimensional(
                f"no vanishing degree found up to degree {top_bound}"
            )
        all_monos = monomials(num_vars, d)
        mono_pos = {m: i for i, m in enumerate(all_monos)}
        cols = []
        for e, polys in by_degree.items():
            if e > d:
                continue
            for shift in monomials(num_vars, d - e):
                for poly in polys:
                    cols.append(
                        {mono_pos[monomial_mul(shift, m)]: c for m, c in poly.items()}
                    )
        reducer = Subspace.spanned_by_columns(field, len(all_monos), cols)
        pivots = set(reducer.pivots)
        standard = [m for i, m in enumerate(all_monos) if i not in pivots]
        if not standard:
            top_degree = d - 1
            break
        basis[d] = tuple(standard)
        reducers[d] = (reducer, all_monos, mono_pos)
        d += 1
    return GradedAlgebra(field, num_vars, names, relations, basis, reducers, top_degree)


def _clean_poly(field, poly):
    """A user's {monomial: scalar} dict with raw coefficients, zeros dropped."""
    out = {}
    for m, c in poly.items():
        c = field.scalar(c)
        if c:
            out[tuple(m)] = c
    return out


class GradedFreeModule:
    """Free module with generators in prescribed internal degrees."""

    __slots__ = ("algebra", "gen_degrees", "gen_labels", "_pieces")

    def __init__(self, algebra, gen_degrees, gen_labels=None):
        self.algebra = algebra
        self.gen_degrees = tuple(gen_degrees)
        if gen_labels is None:
            gen_labels = tuple(range(len(self.gen_degrees)))
        self.gen_labels = tuple(gen_labels)
        if len(self.gen_labels) != len(self.gen_degrees):
            raise ValueError("need one label per generator")
        if len(set(self.gen_labels)) != len(self.gen_labels):
            raise ValueError("generator labels must be distinct")
        self._pieces = {}

    @property
    def rank(self):
        return len(self.gen_degrees)

    def piece_basis(self, d):
        """Pairs (generator index, monomial) spanning the degree-d piece."""
        cached = self._pieces.get(d)
        if cached is not None:
            return cached
        out = []
        for j, g in enumerate(self.gen_degrees):
            for mono in self.algebra.basis(d - g):
                out.append((j, mono))
        out = tuple(out)
        self._pieces[d] = out
        return out

    def dimension(self, d):
        return len(self.piece_basis(d))

    def degree_span(self):
        """Smallest window of internal degrees containing all pieces."""
        if not self.gen_degrees:
            return range(0)
        lo = min(self.gen_degrees)
        hi = max(self.gen_degrees) + self.algebra.top_degree
        return range(lo, hi + 1)

    def twist_signature(self):
        counts = {}
        for g in self.gen_degrees:
            counts[g] = counts.get(g, 0) + 1
        return tuple(sorted(counts.items()))

    def __repr__(self):
        sig = " ".join(f"k^{c}({-g})" if g else f"k^{c}" for g, c in self.twist_signature())
        return f"<GradedFreeModule {sig or '0'}>"


class GradedModuleMap:
    """Module map held as its columns, the layout of `linalg.Matrix`.

    columns[b] lists the pairs (a, entry) of source generator b, entry the
    reduced coefficient of target generator a in the image of b; its degree
    must equal the generator degree gap.  `entries`, keyed (a, b), is built
    from and read back as a view of the columns.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, entries):
        if source.algebra is not target.algebra:
            raise ValueError("source and target over different algebras")
        self.source = source
        self.target = target
        alg = source.algebra
        height, width = target.rank, source.rank
        columns = [[] for _ in range(width)]
        for (a, b), poly in entries.items():
            if not (0 <= a < height and 0 <= b < width):
                raise IndexError(f"entry ({a}, {b}) outside {height}x{width}")
            reduced = alg.reduce(_clean_poly(alg.field, poly))
            if not reduced:
                continue
            want = source.gen_degrees[b] - target.gen_degrees[a]
            if poly_degree(reduced) != want:
                raise ValueError(
                    f"entry ({a}, {b}) has degree {poly_degree(reduced)}, "
                    f"expected {want}"
                )
            columns[b].append((a, reduced))
        self.columns = columns

    @property
    def entries(self):
        """{(a, b): entry} of the nonzero entries, a new dict on each read."""
        return {(a, b): poly for b, col in enumerate(self.columns) for a, poly in col}

    def images(self, basis, rows):
        """The column of each source basis vector (b, monomial) in basis, as
        a {row: scalar} dict on the target positions rows[(a, monomial)]."""
        times = self.source.algebra.times
        out = []
        for b, mono in basis:
            col = {}
            for a, poly in self.columns[b]:
                for m2, c in times(poly, mono).items():
                    col[rows[(a, m2)]] = c
            out.append(col)
        return out

    def expanded_matrix(self, d):
        """The degree-d piece of the map as a plain matrix."""
        target = self.target.piece_basis(d)
        rows = {pair: i for i, pair in enumerate(target)}
        columns = self.images(self.source.piece_basis(d), rows)
        return Matrix.from_column_dicts(self.source.algebra.field, len(target), columns)

    def is_minimal(self):
        """True when no entry has a degree-zero (unit) component."""
        return all(poly_degree(poly) >= 1 for poly in self.entries.values())

    def __repr__(self):
        return f"<GradedModuleMap {len(self.entries)} entries>"


class GradedComplex:
    """Complex of graded free modules over one algebra."""

    __slots__ = ("algebra", "modules", "maps", "lo", "hi")

    def __init__(self, algebra, modules, maps):
        self.algebra = algebra
        self.modules = dict(modules)
        self.maps = dict(maps)
        degrees = [n for n, m in self.modules.items() if m.rank]
        self.lo = min(degrees) if degrees else 0
        self.hi = max(degrees) if degrees else -1
        for n, f in self.maps.items():
            if f.source is not self.modules.get(n) or f.target is not self.modules.get(n - 1):
                raise ValueError(f"map at {n} does not connect adjacent modules")

    def module(self, n):
        mod = self.modules.get(n)
        if mod is None:
            return GradedFreeModule(self.algebra, ())
        return mod

    def map(self, n):
        return self.maps.get(n)

    def __repr__(self):
        ranks = " ".join(f"{n}:{self.module(n).rank}" for n in range(self.lo, self.hi + 1))
        return f"<GradedComplex ranks [{ranks}]>"


def koszul_complex(algebra):
    """Koszul complex on the variables, with alternating-sign differential."""
    n = algebra.num_vars
    modules = {}
    gens = {}
    for q in range(n + 1):
        subsets = list(combinations(range(n), q))
        gens[q] = subsets
        modules[q] = GradedFreeModule(
            algebra, (q,) * len(subsets), tuple(subsets)
        )
    maps = {}
    for q in range(1, n + 1):
        tgt_pos = {s: k for k, s in enumerate(gens[q - 1])}
        entries = {}
        for b, subset in enumerate(gens[q]):
            for l, var in enumerate(subset):
                rest = subset[:l] + subset[l + 1 :]
                unit = tuple(1 if k == var else 0 for k in range(n))
                entries[(tgt_pos[rest], b)] = {unit: -1 if l % 2 else 1}
        maps[q] = GradedModuleMap(modules[q], modules[q - 1], entries)
    return GradedComplex(algebra, modules, maps)


def minimal_free_resolution(algebra, length_limit):
    """Minimal free resolution of the residue field, to the given length.

    Generators of each syzygy module are chosen degreewise, lowest internal
    degree first, as representatives of the kernel modulo the maximal ideal
    times the kernel; echelon order breaks ties, so the output is
    deterministic.
    """
    if length_limit < 0:
        raise ValueError(f"resolution length must be nonnegative, got {length_limit}")
    field = algebra.field
    modules = {0: GradedFreeModule(algebra, (0,), ((0, 0),))}
    maps = {}
    current = modules[0]
    # the augmentation kernel is everything in positive internal degree
    ker = {}
    for d in current.degree_span():
        dim = current.dimension(d)
        if d >= 1 and dim:
            ker[d] = Subspace.full(field, dim)
    n = algebra.num_vars
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    for p in range(1, length_limit + 1):
        # "multiply by x_i" from current(-1), whose degree-d piece is
        # current's degree-(d - 1) piece in the same order, to current
        shifted = GradedFreeModule(algebra, [g + 1 for g in current.gen_degrees])
        times_x = [
            GradedModuleMap(shifted, current, {(j, j): {u: 1} for j in range(current.rank)})
            for u in units
        ]
        chosen = []
        prev_kernel = {}
        for d in sorted(ker):
            k_d = ker[d]
            if k_d.is_zero:
                continue
            # m K_d: one span of the x_i-images of the kernel a degree below
            images = []
            below = prev_kernel.get(d - 1)
            if below is not None:
                for f in times_x:
                    images += f.expanded_matrix(d).apply_all(below.basis_columns)
            pres = quotient(k_d, Subspace.spanned_by_columns(field, k_d.ambient_dim, images))
            chosen += [(d, rep) for rep in pres.rep_columns]
            prev_kernel[d] = k_d
        degrees = tuple(d for d, _ in chosen)
        labels = tuple((p, k) for k in range(len(chosen)))
        new_module = GradedFreeModule(algebra, degrees, labels)
        entries = {}
        for k, (d, rep) in enumerate(chosen):
            basis = current.piece_basis(d)
            for idx, c in rep.items():
                b, mono = basis[idx]
                entries.setdefault((b, k), {})[mono] = c
        diff = GradedModuleMap(new_module, current, entries)
        modules[p] = new_module
        maps[p] = diff
        current = new_module
        if p == length_limit:
            break  # the last map's kernels would be dropped
        ker = {}
        for d in new_module.degree_span():
            if new_module.dimension(d):
                ker[d] = kernel(diff.expanded_matrix(d))
    return GradedComplex(algebra, modules, maps)


def tensor_complex(cf, ck):
    """Tensor product over the common algebra, with the Koszul sign on the
    second factor's differential."""
    if cf.algebra is not ck.algebra:
        raise ValueError("tensor factors over different algebras")
    algebra = cf.algebra
    positions = {}
    modules = {}
    for n in range(cf.lo + ck.lo, cf.hi + ck.hi + 1):
        degs = []
        labels = []
        pos = {}
        for i in range(cf.lo, cf.hi + 1):
            j = n - i
            mf, mk = cf.module(i), ck.module(j)
            for a in range(mf.rank):
                for b in range(mk.rank):
                    pos[(i, a, b)] = len(degs)
                    degs.append(mf.gen_degrees[a] + mk.gen_degrees[b])
                    labels.append((i, mf.gen_labels[a], mk.gen_labels[b]))
        positions[n] = pos
        modules[n] = GradedFreeModule(algebra, tuple(degs), tuple(labels))
    maps = {}
    for n in sorted(modules):
        if n - 1 not in positions:
            continue
        prev = positions[n - 1]
        entries = {}
        for (i, a, b), src in positions[n].items():
            df, dk = cf.maps.get(i), ck.maps.get(n - i)
            for a2, poly in df.columns[a] if df else ():
                entries[(prev[(i - 1, a2, b)], src)] = dict(poly)
            sign = -1 if i % 2 else 1
            for b2, poly in dk.columns[b] if dk else ():
                entries[(prev[(i, a, b2)], src)] = {m: sign * c for m, c in poly.items()}
        if entries:
            maps[n] = GradedModuleMap(modules[n], modules[n - 1], entries)
    return GradedComplex(algebra, modules, maps)


ExpLabel = namedtuple("ExpLabel", ["gen", "monomial", "degree"])


def expand(gc):
    """Flatten a graded complex into a vector-space chain complex.

    Term bases are ordered by internal degree, then generator index, then
    monomial order; labels carry (generator label, monomial, degree), and
    the assembled differentials are block diagonal over internal degree.
    """
    field = gc.algebra.field
    bases, labels = {}, {}
    for n in range(gc.lo, gc.hi + 1):
        mod = gc.module(n)
        basis, labs = [], []
        for d in mod.degree_span():
            piece = mod.piece_basis(d)
            basis += piece
            labs += [ExpLabel(mod.gen_labels[j], mono, d) for j, mono in piece]
        bases[n] = basis
        labels[n] = tuple(labs)
    diffs = {}
    for n in range(gc.lo + 1, gc.hi + 1):
        f = gc.map(n)
        if f is None:
            continue
        # a map keeps internal degree, and (generator, monomial) is unique in a term
        rows = {pair: i for i, pair in enumerate(bases[n - 1])}
        diffs[n] = Matrix.from_column_dicts(field, len(rows), f.images(bases[n], rows))
    return ChainComplex(field, labels, diffs)


def factor_filtration(expanded, factor):
    """Filtration of an expanded tensor complex by one homological factor.

    Labels produced by tensor_complex start with the first factor's
    homological index i; factor 0 filters by i, factor 1 by n - i.
    """
    if factor not in (0, 1):
        raise ValueError("factor must be 0 or 1")
    levels = {}
    for n in expanded.degrees():
        per = []
        for lab in expanded.term_labels(n):
            i = lab.gen[0]
            per.append(i if factor == 0 else n - i)
        levels[n] = per
    return from_basis_levels(expanded, levels)


# ---------------------------------------------------------------------------
# internal-degree bookkeeping on expanded complexes


def internal_degrees(expanded, n):
    return tuple(lab.degree for lab in expanded.term_labels(n))


def _column_degrees(columns, degrees, what):
    """The one internal degree of each column; each must be homogeneous."""
    out = []
    for col in columns:
        degs = {degrees[i] for i in col}
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous {what}")
        out.append(degs.pop())
    return out


def class_degrees(pres, degrees):
    """Internal degree of each quotient class; classes must be homogeneous."""
    return _column_degrees(pres.rep_columns, degrees, "quotient class")


def degree_breakdown(pres, degrees):
    """Dimension of a page entry split by internal degree."""
    return dict(sorted(Counter(class_degrees(pres, degrees)).items()))


def image_degree_breakdown(matrix, target_class_degrees):
    """Total dimension of a page map's image with its degree decomposition."""
    img = image(matrix)
    degrees = _column_degrees(img.basis_columns, target_class_degrees, "image vector")
    return img.dim, dict(sorted(Counter(degrees).items()))
