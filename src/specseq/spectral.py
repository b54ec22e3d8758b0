"""The spectral sequence of a bounded filtered chain complex.

Everything is lazy: constructing a SpectralSequence performs no linear
algebra, and all cycle subspaces, page entries, and page maps are memoized
on first use.  Every query keys through one key of E^r(p, q), n = p + q,
which names layers, not indices:

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
coordinate layers and others alike.  Page entries are the standard
subquotients

    E^r(p, q) = Z^r(p, q) / (Z^{r-1}(p-1, q+1) + d Z^{r-1}(p+r-1, q-r+2)),

whose numerator is the space (hi, lo, n), the first part of whose
denominator is (below, lo, n), and whose arriving part is (above, hi, n + 1).
An entry is memoized on its key, so each distinct one is computed once.  Its
denominator is one elimination of the basis of the first part with the
nonzero d-images of that of the arriving part, or the first part itself when
there are none.  Where the first part equals the numerator the entry is
zero: nothing is eliminated, and each arriving vector is only checked to lie
in the numerator, raising NotASubspace as quotient does.  Its
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

`limit_comparison` reads gr_p H_n off one persistence reduction per degree
(Edelsbrunner, Letscher and Zomorodian), with clearing (Chen and Kerber).
The fresh columns of degree n's layers (FilteredComplex.fresh_columns), in
level order f_0, ..., f_{m-1}, are a basis adapted to the filtration: layer
p is the span of the first dim F_p of them, and the top layer is full.  Each
f_k is 1 at its pivot row, its first row, so writing a vector in that basis
is a forward substitution, and on a coordinate layer only a relabelling.
Coordinate k is held at row m - 1 - k, so that _reduce_columns' first-row
pivot is the persistence "low".  The columns d_n f_j, in degree n - 1's
adapted basis, are reduced level by level into one pivot table, whose size
after level p is rank(d_n on F_p).  The degrees go downward, so degree
n + 1's table is complete: its pivots number dim B for B = im d_{n+1}, its
lows at level <= p number dim(F_p cap B), and a column f_j whose index is
such a low is skipped, as a boundary with low j makes d_n f_j a combination
of earlier columns.  Then dim((ker d_n cap F_p) + B) = dim F_p + dim B -
dim(F_p cap B) - rank(d_n on F_p), whose step from p - 1 to p is gr_p H_n.
So the comparison shares only _reduce_columns, the sparse updates and the
layer bases with the pages: no _cut, kernel or back-substitution.  The memo
tables take no lock; dict.setdefault, atomic under the GIL, keeps the first
value stored.
"""

from .errors import ComparisonFailure, NotASubspace
from .linalg import Matrix, Subspace, _add_multiple, _cut, _reduce_columns
from .linalg import induced_map, quotient


def _adapted_coordinates(levels, p):
    """The map from a vector {row: scalar} of a term to its coordinates in the
    basis f_0, ..., f_{m-1} of the term's fresh columns, given by level, with
    coordinate k at row m - 1 - k.  It may edit the vector in place.

    Each f_k is 1 at its pivot row, its first row, and every row is some
    f_k's pivot: taking off multiples of the f's in increasing pivot order
    leaves the coefficients at the pivots.  Only the f's with rows besides
    their pivot change other entries, so only they are taken off.
    """
    columns = [f for level in levels for f in level]
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
    __slots__ = ("source", "_cycles", "_entries", "_diffs")

    def __init__(self, source):
        self.source = source
        self._cycles = {}
        self._entries = {}
        self._diffs = {}

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
        hi, lo, below, above, n = key
        num, den = self._cycles_at(hi, lo, n), self._cycles_at(below, lo, n)
        lifts = self._cycles_at(above, hi, n + 1).basis_columns
        pushed = [y for y in self.source.ambient.diff(n + 1).apply_all(lifts) if y]
        if den == num:
            # a zero entry: the arriving vectors need only be checked
            if not all(map(num.contains_vector, pushed)):
                raise NotASubspace("denominator not contained in numerator")
        elif pushed:
            # one elimination of Z^{r-1}(p-1) and d Z^{r-1}(p+r-1) together
            den = Subspace.spanned_by_columns(
                den.field, den.ambient_dim, den.basis_columns + tuple(pushed)
            )
        return quotient(num, den)

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

    # -- convergence ---------------------------------------------------------

    def limit_comparison(self, strict=True):
        """Check dim E^inf(p, n - p) against graded homology of the ambient.

        gr_p H_n comes from one column reduction per degree, in the bases
        adapted to the filtration, walking the degrees downward and skipping
        the columns the degree above has settled (see the module docstring).
        """
        fc = self.source
        amb = fc.ambient
        char = amb.field.characteristic
        inf = self.infinity_page()
        rows = []
        degrees = amb.degrees()
        # degree n + 1's pivot table, spanning B = im d_{n+1}: empty above the top
        above = {}
        below = fc.fresh_columns(degrees[-1]) if degrees else ()
        for n in reversed(degrees):
            levels, below = below, fc.fresh_columns(n - 1) if n - 1 in degrees else ()
            coordinates = _adapted_coordinates(below, char)
            d, last = amb.diff(n), amb.dim(n) - 1
            # dim((ker d_n cap F_p) + B) for p from p_min - 1 to p_max
            table, cut, size, lows = {}, [], 0, 0
            for level in levels:
                # a low j of the table above: d_n f_j depends on earlier columns
                kept = [f for j, f in enumerate(level, size) if last - j not in above]
                size, lows = size + len(level), lows + len(level) - len(kept)
                _reduce_columns(list(map(coordinates, d.apply_all(kept))), char, table)
                cut.append(size + len(above) - lows - len(table))
            for p, lower, upper in zip(fc.p_range, cut, cut[1:]):
                einf, gr = inf.entry(p, n - p).dim, upper - lower
                rows.append((n, p, einf, gr, einf == gr))
            above = table
        # the rows in ascending degree
        report = LimitReport(sorted(rows))
        if strict and not report.ok:
            exc = ComparisonFailure(
                "infinity page disagrees with graded homology\n" + report.render()
            )
            exc.report = report
            raise exc
        return report
