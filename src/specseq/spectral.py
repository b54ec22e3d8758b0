"""The spectral sequence of a bounded filtered chain complex.

Everything is lazy: constructing a SpectralSequence performs no linear
algebra, and all cycle subspaces, persistence reductions, page entries and
page maps are memoized on first use.  Every query keys through one key of
E^r(p, q), n = p + q, which names layers, not indices:

    (hi, lo, below, above, n) = for the indices p, p - r, p - 1, p + r - 1,
                                each clamped into [p_min - 1, p_max], the
                                least index of an equal layer in degree n,
                                n - 1, n and n + 1 respectively.

Clamping loses nothing, as layers below the window are zero and layers above
it full: FilteredComplex.layer clamps by the same rule.  Nor does taking the
least equal index, read off the filtration's table of them.  Equal layers
are one object, so each key names the very layers the indices do, and
queries at indices whose layers repeat share every value.  The cycle space

    Z^r(p, q) = layer(p, n) cap d^{-1}(layer(p - r, n - 1))

is the space (hi, lo, n).  Where lo >= hi (r <= 0, both indices past one end
of the window, or no layer of degree n - 1 below index hi equal to
layer(p - r, n - 1)) it is the layer itself: layers are nested and d maps
layer(hi, n) into layer(hi, n - 1), which lies in layer(lo, n - 1).  Every other Z^r is
linalg._cut of layer(hi, n) by d into layer(lo, n - 1): one elimination, on
coordinate layers and others alike.

Degree n's persistence reduction (Edelsbrunner, Letscher and Zomorodian),
with clearing (Chen and Kerber), is memoized on n.  The fresh columns of
degree n's layers (FilteredComplex.fresh_columns), in level order f_0, ...,
f_{m-1}, are a basis adapted to the filtration: layer p is the span of the
first dim F_p of them, and the top layer is full.  Each f_k is 1 at its
pivot row, its first row, so writing a vector in that basis is a forward
substitution, and on a coordinate layer only a relabelling.  Coordinate k is
held at row m - 1 - k, so that _reduce_columns' first-row pivot is the
persistence "low".  The columns d_n f_j, in degree n - 1's adapted basis,
are reduced level by level into one pivot table.  Degree n + 1's reduction
is built first, and a column f_j whose index is one of its lows is skipped,
as a boundary with low j makes d_n f_j a combination of earlier columns.
Each nonzero reduced column is kept with its source level (that of the f_j
it came from), the level of its low, and its value in the ambient basis.
The columns of source level <= s are d of vectors of F_s and span d F_s.
Their lows are distinct, so a combination of them lies in F_t exactly when
each column in it has its low at a level <= t: those span d F_s cap F_t,
and the others are independent modulo F_t.

Page entries are the standard subquotients

    E^r(p, q) = Z^r(p, q) / (Z^{r-1}(p-1, q+1) + d Z^{r-1}(p+r-1, q-r+2)),

whose numerator is the space (hi, lo, n) and the first part of whose
denominator is (below, lo, n).  The arriving part d Z^{r-1}(p+r-1) is
d(layer(above, n + 1)) cap layer(hi, n), so modulo the first part it is
spanned by the reduced columns of d_{n+1} of source level <= above whose
lows lie at levels in (below, hi]: a column with its low at a level <= below
is a boundary in layer(below, n), so in the first part, and the others are
independent modulo it.  So no lift space is cut, and the denominator gets no
dependent vector.  Where layer(above, n) lies in layer(hi, n), as on every
page r <= 1, the lift space is all of layer(above, n + 1).  There, while
degree n + 1's reduction is not built, the arriving vectors are the nonzero
d-images of that layer's fresh columns above layer(below, n + 1) instead, so
the first pages start no reduction.  An entry is memoized on its key, so
each distinct one is computed once.  Its denominator is one elimination of
the basis of the first part with the arriving vectors, or the first part
itself when there are none.  Where the first part equals the numerator the
entry is zero: nothing is eliminated, and each arriving vector is only
checked to lie in the numerator, raising NotASubspace as quotient does.  Its
representatives are the numerator's basis columns at the pivots outside the
denominator's, selected with no elimination.
Stabilization at each position falls out of the key, not out of r_star:
E^r(p, q) is one value for all r >= max(p - p_min + 1, p_max - p + 1), and
from a lower r where layers repeat.

A page map out of p <= p_max is memoized on the pair of its source and
target entry keys: one source key can meet targets that differ, as the
target also reads layer(p - 2r, n - 2), which the source key does not name.
Above p_max the source is zero, so such a map is the dim x 0 zero matrix of
its target, with no memo and no induced map.  A Page or PageMap holds the
filtration window and raises KeyError outside it; SpectralSequence.entry
answers every position.

`limit_comparison` counts gr_p H_n off the reductions of d_n and d_{n+1}
and reduces nothing of its own.  For B = im d_{n+1}, dim B is the number of
degree n + 1's reduced columns and dim(F_p cap B) the number of those with
their low at a level <= p; rank(d_n on F_p) is the number of degree n's of
source level <= p.  Then dim((ker d_n cap F_p) + B) = dim F_p + dim B -
dim(F_p cap B) - rank(d_n on F_p), whose step from p - 1 to p is gr_p H_n.
As the entries read the same reductions, the comparison checks the cycle
spaces, which _cut makes, but not the arriving parts: the tests and
scripts/property_sweep.py check every page against the barcode oracle of
perfbench/oracle.py, which shares no code with specseq.  The memo tables
take no lock; dict.setdefault, atomic under the GIL, keeps the first value
stored.
"""

from itertools import islice

from .errors import ComparisonFailure, NotASubspace
from .linalg import Matrix, Subspace, _add_multiple, _combine, _cut, _reduce_columns
from .linalg import induced_map, quotient


def _adapted_coordinates(columns, p):
    """The map from a vector {row: scalar} of a term to its coordinates in the
    basis f_0, ..., f_{m-1} of the term's fresh columns, given in level order,
    with coordinate k at row m - 1 - k.  It may edit the vector in place.

    Each f_k is 1 at its pivot row, its first row, and every row is some
    f_k's pivot: taking off multiples of the f's in increasing pivot order
    leaves the coefficients at the pivots.  Only the f's with rows besides
    their pivot change other entries, so only they are taken off.
    """
    last = len(columns) - 1
    slot, tailed = {}, {}
    for k, f in enumerate(columns):
        i = min(f)
        slot[i] = last - k
        if len(f) > 1:
            tailed[i] = f

    def coordinates(y):
        if tailed:
            found = {}
            hits = tailed.keys() & y.keys()
            while hits:
                i = min(hits)
                c = found[i] = y[i]
                _add_multiple(y, -c, tailed[i], p)
                hits = tailed.keys() & y.keys()
            y.update(found)
        return {slot[i]: v for i, v in y.items()}

    return coordinates


class Page:
    """Snapshot of one page over the filtration window."""

    __slots__ = ("r", "source", "entries", "stable")

    def __init__(self, r, source, entries, stable=False):
        self.r = r
        self.source = source
        self.entries = entries
        self.stable = stable

    def entry(self, p, q):
        return self.entries[(p, q)]

    def dims(self):
        return {
            pos: pres.dim for pos, pres in sorted(self.entries.items()) if pres.dim
        }

    def positions(self):
        return sorted(pos for pos, pres in self.entries.items() if pres.dim)

    def __repr__(self):
        cells = ", ".join(f"({p},{q}):{d}" for (p, q), d in self.dims().items())
        flag = " stable" if self.stable else ""
        return f"<Page r={self.r}{flag} [{cells}]>"


class PageMap:
    """All differentials of one page, in the entries' class bases."""

    __slots__ = ("r", "source", "matrices")

    def __init__(self, r, source, matrices):
        self.r = r
        self.source = source
        self.matrices = matrices

    def matrix(self, p, q):
        return self.matrices[(p, q)]


class LimitReport:
    """Comparison of infinity-page dimensions with graded homology."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    @property
    def ok(self):
        return all(row[4] for row in self.rows)

    def render(self):
        out = []
        for n, p, einf, gr, ok in self.rows:
            out.append(f"{n} {p} {einf} {gr} {'ok' if ok else 'FAIL'}")
        return "\n".join(out)


class SpectralSequence:
    __slots__ = ("source", "_cycles", "_entries", "_diffs", "_reductions")

    def __init__(self, source):
        self.source = source
        self._cycles = {}
        self._entries = {}
        self._diffs = {}
        self._reductions = {}

    @property
    def r_star(self):
        """Index from which every differential leaves the filtration window."""
        return self.source.p_max - self.source.p_min + 2

    def _memo(self, table, key, compute, *args):
        value = table.get(key)
        if value is None:
            value = table.setdefault(key, compute(*args))
        return value

    def _key(self, r, p, n):
        """Key (hi, lo, below, above, n) of E^r(p, n - p): for the indices p,
        p - r, p - 1 and p + r - 1, each clamped into [p_min - 1, p_max], the
        least index of an equal layer, in degrees n, n - 1, n and n + 1."""
        fc = self.source
        first, outside = fc._first, fc._first_outside
        top = len(outside) - 1
        k = p - fc.p_min + 1
        lo, below, above = k - r, k - 1, k + r - 1
        here = first.get(n, outside)
        return (
            here[0 if k < 0 else top if k > top else k],
            first.get(n - 1, outside)[0 if lo < 0 else top if lo > top else lo],
            here[0 if below < 0 else top if below > top else below],
            first.get(n + 1, outside)[0 if above < 0 else top if above > top else above],
            n,
        )

    # -- cycle subspaces ----------------------------------------------------

    def _cycles_at(self, hi, lo, n):
        if lo >= hi:
            # d maps each layer into itself, so Z is the whole layer
            return self.source.layer(hi, n)
        return self._memo(self._cycles, (hi, lo, n), self._compute_cycles, hi, lo, n)

    def cycles(self, r, p, q):
        hi, lo, _, _, n = self._key(r, p, p + q)
        return self._cycles_at(hi, lo, n)

    def _compute_cycles(self, hi, lo, n):
        fc = self.source
        return _cut(fc.layer(hi, n), fc.ambient.diff(n), fc.layer(lo, n - 1))

    # -- pages ---------------------------------------------------------------

    def _entry_at(self, key):
        return self._memo(self._entries, key, self._compute_entry, key)

    def entry(self, r, p, q):
        if r < 0:
            raise ValueError("page index must be nonnegative")
        return self._entry_at(self._key(r, p, p + q))

    def _compute_entry(self, key):
        hi, lo, below, _, n = key
        num, den = self._cycles_at(hi, lo, n), self._cycles_at(below, lo, n)
        arriving = self._arriving(key)
        if den == num:
            # a zero entry: the arriving vectors need only be checked
            if not all(map(num.contains_vector, arriving)):
                raise NotASubspace("denominator not contained in numerator")
        elif arriving:
            # one elimination of Z^{r-1}(p-1) and the arriving vectors together
            den = Subspace.spanned_by_columns(
                den.field, den.ambient_dim, den.basis_columns + tuple(arriving)
            )
        return quotient(num, den)

    def _arriving(self, key):
        """Vectors spanning d Z^{r-1}(p+r-1) modulo Z^{r-1}(p-1) for the entry
        at key: the selected reduced columns of d_{n+1}, or, where the lift
        space is a whole layer and that reduction is not built, the nonzero
        d-images of the layer's fresh columns above layer(below, n + 1)."""
        hi, _, below, above, n = key
        fc = self.source
        if n + 1 not in fc._table:
            return ()
        start = fc.p_min - 1
        if n + 1 not in self._reductions and fc._first.get(n, fc._first_outside)[above - start] <= hi:
            # layer(above, n) lies in layer(hi, n), so d lifts all of layer(above, n + 1)
            fresh = fc.fresh_columns(n + 1)[below - start + 1 : above - start + 1]
            pushed = fc.ambient.diff(n + 1).apply_all([f for cols in fresh for f in cols])
            return [y for y in pushed if y]
        return [
            col
            for source, low, col in self._reduction(n + 1).values()
            if source <= above and below < low <= hi
        ]

    def _window(self, query, r):
        """query(r, p, q) at every position of the filtration window."""
        fc = self.source
        degrees = fc.ambient.degrees()
        return {(p, n - p): query(r, p, n - p) for p in fc.p_range for n in degrees}

    def page(self, r):
        return Page(r, self.source, self._window(self.entry, r), stable=r >= self.r_star)

    def infinity_page(self):
        return self.page(self.r_star)

    # -- differentials -------------------------------------------------------

    def differential(self, r, p, q):
        """The induced map entry(p, q) -> entry(p - r, q + r - 1)."""
        if r < 1:
            raise ValueError("page differentials start at r = 1")
        n = p + q
        target = self._key(r, p - r, n - 1)
        if p > self.source.p_max:
            # the source is zero; see the module docstring
            rows = self._entry_at(target).dim
            return Matrix.zeros(self.source.ambient.field, rows, 0)
        key = self._key(r, p, n)
        return self._memo(self._diffs, (key, target), self._compute_diff, key, target)

    def _compute_diff(self, src_key, tgt_key):
        return induced_map(
            self.source.ambient.diff(src_key[4]),
            self._entry_at(src_key),
            self._entry_at(tgt_key),
        )

    def page_map(self, r):
        return PageMap(r, self.source, self._window(self.differential, r))

    # -- persistence reductions -----------------------------------------------

    def _reduction(self, n):
        """Degree n's persistence reduction, with clearing (see the module
        docstring): {low: (source level, low level, column)} over its nonzero
        reduced columns, in the order found, each low an index of degree
        n - 1's adapted basis and each column in degree n - 1's ambient basis."""
        return self._memo(self._reductions, n, self._reduce, n)

    def _reduce(self, n):
        fc = self.source
        d = fc.ambient.diff(n)
        if n not in fc._table or d.is_zero:
            return {}
        # a low j of degree n + 1: d_n f_j is a combination of earlier columns
        cleared = self._reduction(n + 1)
        char = d.field.characteristic
        basis, level_of = [], []
        for level, cols in enumerate(fc.fresh_columns(n - 1), fc.p_min - 1):
            basis += cols
            level_of += [level] * len(cols)
        last = len(basis) - 1
        coordinates = _adapted_coordinates(basis, char)
        table, sources, size = {}, {}, 0
        for level, cols in enumerate(fc.fresh_columns(n), fc.p_min - 1):
            kept = [f for j, f in enumerate(cols, size) if j not in cleared]
            size, found = size + len(cols), len(table)
            _reduce_columns(list(map(coordinates, d.apply_all(kept))), char, table)
            # new pivots enter the table last
            for row in islice(table, found, None):
                sources[last - row] = level
        columns = _combine(basis[::-1], table.values(), char)
        return {
            low: (source, level_of[low], col)
            for (low, source), col in zip(sources.items(), columns)
        }

    # -- convergence ---------------------------------------------------------

    def limit_comparison(self, strict=True):
        """Check dim E^inf(p, n - p) against graded homology of the ambient.

        gr_p H_n is counted off the memoized persistence reductions of d_n
        and d_{n+1}, which the entries read too, so nothing is reduced here
        that a page has already reduced (see the module docstring).
        """
        fc = self.source
        inf = self.infinity_page()
        rows = []
        for n in fc.ambient.degrees():
            sources = [level for level, _, _ in self._reduction(n).values()]
            lows = [low for _, low, _ in self._reduction(n + 1).values()]
            # dim((ker d_n cap F_p) + B) = dim F_p + dim B - dim(F_p cap B) -
            # rank(d_n on F_p), for p from p_min - 1 to p_max
            cut = [
                fc.layer(p, n).dim + sum(low > p for low in lows) - sum(s <= p for s in sources)
                for p in range(fc.p_min - 1, fc.p_max + 1)
            ]
            for p, lower, upper in zip(fc.p_range, cut, cut[1:]):
                einf, gr = inf.entry(p, n - p).dim, upper - lower
                rows.append((n, p, einf, gr, einf == gr))
        report = LimitReport(rows)
        if strict and not report.ok:
            exc = ComparisonFailure(
                "infinity page disagrees with graded homology\n" + report.render()
            )
            exc.report = report
            raise exc
        return report
