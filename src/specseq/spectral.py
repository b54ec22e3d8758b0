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

`limit_comparison` reads gr_p H_n off ranks.  Write F_p = layer(p, n) and
B = im d_{n+1}, inside ker d_n: d_n maps F_p + B onto d_n F_p with kernel
(ker d_n cap F_p) + B, so dim((ker d_n cap F_p) + B) = dim(F_p + B) -
rank(d_n on F_p), whose step from p - 1 to p is gr_p H_n.  Per degree, one
pivot table spanning B is fed each layer's fresh basis columns
(FilteredComplex.fresh_columns, whose columns up to layer p span F_p),
another their d_n-images, and each rank is read after each layer.  The
degrees go downward: the fresh columns of all layers span the term, as the
top layer is full, so the second table of degree n + 1 spans im d_{n+1} and
is the first table of degree n, and no boundary matrix is reduced twice.  So
the comparison shares only _reduce_columns, Matrix.apply_all and the layer
bases with the pages: no _cut, kernel or back-substitution.  The memo
tables take no lock; dict.setdefault, atomic under the GIL, keeps the first
value stored.
"""

from .errors import ComparisonFailure, NotASubspace
from .linalg import Matrix, Subspace, _cut, _prefix_ranks, induced_map, quotient


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

        gr_p H_n comes from two staged rank counts (see the module docstring).
        """
        fc = self.source
        amb = fc.ambient
        char = amb.field.characteristic
        inf = self.infinity_page()
        rows = []
        # a pivot table spanning B = im d_{n+1}: empty above the top degree
        bounds = {}
        for n in reversed(amb.degrees()):
            # copies: the engine edits them in place, after apply_all reads them
            fresh = [[dict(c) for c in cols] for cols in fc.fresh_columns(n)]
            images = [amb.diff(n).apply_all(cols) for cols in fresh]
            spans = _prefix_ranks(fresh, char, bounds)
            # the images of all fresh columns span im d_n, degree n - 1's B
            bounds = {}
            # dim(ker d_n cap F_p + B) for p from p_min - 1 to p_max
            cut = [s - r for s, r in zip(spans, _prefix_ranks(images, char, bounds))]
            for p, lower, upper in zip(fc.p_range, cut, cut[1:]):
                einf, gr = inf.entry(p, n - p).dim, upper - lower
                rows.append((n, p, einf, gr, einf == gr))
        # the rows in ascending degree
        report = LimitReport(sorted(rows))
        if strict and not report.ok:
            exc = ComparisonFailure(
                "infinity page disagrees with graded homology\n" + report.render()
            )
            exc.report = report
            raise exc
        return report
