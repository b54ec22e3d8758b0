"""The spectral sequence of a bounded filtered chain complex.

Everything is lazy: constructing a SpectralSequence performs no linear
algebra, and all cycle subspaces, page entries, and page maps are memoized
on first use.  The cycle spaces

    Z^r(p, q) = layer(p, n) cap d^{-1}(layer(p - r, n - 1)),   n = p + q,

only depend on the pair of filtration indices clamped into
[p_min - 1, p_max], so each is keyed by its cycle key (cap_hi, cap_lo, n).
When cap_lo = cap_hi (r <= 0, or both indices past one end of the window)
Z^r is the layer itself and is read off the filtration.  Every other Z^r
is linalg._cut of layer(p, n) by d into layer(p - r, n - 1): one
elimination, on coordinate layers and others alike.  Page entries are the
standard subquotients

    E^r(p, q) = Z^r(p, q) / (Z^{r-1}(p-1, q+1) + d Z^{r-1}(p+r-1, q-r+2)),

and page maps are induced by the ambient differential on representatives.
An entry is memoized on the cycle keys of its three cycle spaces, so each
distinct one is computed once.  Its denominator is one elimination of the
basis of Z^{r-1}(p-1, q+1) with the nonzero d-images of that of
Z^{r-1}(p+r-1, q-r+2), or the former itself when there are none.
Stabilization at each position falls out of the keys, not out of r_star:
E^r(p, q) is one value for all r >= max(p - p_min + 1, p_max - p + 1).

A page map out of p <= p_max is memoized on its source entry key alone.  Two
such queries share that key only where their clamped p and clamped p - r
agree: both columns below the window, or one column with p - r < p_min at
both.  Either way the target is zero and the map is the same 0 x dim matrix.
Above p_max the source is zero at every r but the targets E^r(p - r, .)
differ, so such a map is the dim x 0 zero matrix of its target, with no memo
and no induced map.

`limit_comparison` keeps to kernel, image, intersect and subspace_sum.  It
shares no code with the one-pass denominator, but intersect is the _cut
that makes the cycle spaces, so tests/test_spectral.py checks _cut against
a stacked-kernel reference.  The memo tables take no lock; dict.setdefault,
atomic under the GIL, keeps the first value stored.
"""

from .errors import ComparisonFailure
from .linalg import (
    Matrix,
    Subspace,
    _cut,
    image,
    induced_map,
    intersect,
    kernel,
    quotient,
    subspace_sum,
)


class Page:
    """Snapshot of one page over the filtration window."""

    __slots__ = ("r", "source", "entries", "stable")

    def __init__(self, r, source, entries, stable=False):
        self.r = r
        self.source = source
        self.entries = entries
        self.stable = stable

    def entry(self, p, q):
        pres = self.entries.get((p, q))
        if pres is None:
            field = self.source.ambient.field
            dim = self.source.ambient.dim(p + q)
            z = Subspace.zero(field, dim)
            return quotient(z, z)
        return pres

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

    def _memo(self, table, key, compute):
        value = table.get(key)
        if value is None:
            value = table.setdefault(key, compute())
        return value

    # -- cycle subspaces ----------------------------------------------------

    def _cycle_key(self, r, p, n):
        """Key (cap_hi, cap_lo, n) of Z^r(p, n - p).

        Both filtration indices are clamped into [p_min - 1, p_max], and
        cap_lo is at most cap_hi, so r <= 0 gives cap_lo = cap_hi.
        """
        fc = self.source
        floor = fc.p_min - 1
        cap_hi = max(min(p, fc.p_max), floor)
        return cap_hi, max(min(p - r, cap_hi), floor), n

    def _cycles_at(self, key):
        cap_hi, cap_lo, n = key
        if cap_lo == cap_hi:
            # d maps each layer into itself, so Z is the whole layer
            return self.source.layer(cap_hi, n)
        return self._memo(self._cycles, key, lambda: self._compute_cycles(*key))

    def cycles(self, r, p, q):
        return self._cycles_at(self._cycle_key(r, p, p + q))

    def _compute_cycles(self, cap_hi, cap_lo, n):
        fc = self.source
        return _cut(fc.layer(cap_hi, n), fc.ambient.diff(n), fc.layer(cap_lo, n - 1))

    # -- pages ---------------------------------------------------------------

    def _entry_key(self, r, p, n):
        """Cycle keys of the numerator and of the two parts of the denominator."""
        key = self._cycle_key
        return key(r, p, n), key(r - 1, p - 1, n), key(r - 1, p + r - 1, n + 1)

    def _entry_at(self, key):
        return self._memo(self._entries, key, lambda: self._compute_entry(key))

    def entry(self, r, p, q):
        if r < 0:
            raise ValueError("page index must be nonnegative")
        return self._entry_at(self._entry_key(r, p, p + q))

    def _compute_entry(self, key):
        top, below, arriving = key
        below = self._cycles_at(below)
        lifts = self._cycles_at(arriving).basis_columns
        pushed = [y for y in self.source.ambient.diff(arriving[2]).apply_all(lifts) if y]
        if pushed:
            # one elimination of Z^{r-1}(p-1) and d Z^{r-1}(p+r-1) together
            below = Subspace.spanned_by_columns(
                below.field, below.ambient_dim, below.basis_columns + tuple(pushed)
            )
        return quotient(self._cycles_at(top), below)

    def page(self, r):
        fc = self.source
        entries = {}
        for p in fc.p_range:
            for n in fc.ambient.degrees():
                entries[(p, n - p)] = self.entry(r, p, n - p)
        return Page(r, fc, entries, stable=r >= self.r_star)

    def infinity_page(self):
        return self.page(self.r_star)

    # -- differentials -------------------------------------------------------

    def differential(self, r, p, q):
        """The induced map entry(p, q) -> entry(p - r, q + r - 1)."""
        if r < 1:
            raise ValueError("page differentials start at r = 1")
        n = p + q
        target = self._entry_key(r, p - r, n - 1)
        if p > self.source.p_max:
            # the source is zero; see the module docstring
            rows = self._entry_at(target).dim
            return Matrix.zeros(self.source.ambient.field, rows, 0)
        key = self._entry_key(r, p, n)
        return self._memo(self._diffs, key, lambda: self._compute_diff(key, target))

    def _compute_diff(self, src_key, tgt_key):
        return induced_map(
            self.source.ambient.diff(src_key[0][2]),
            self._entry_at(src_key),
            self._entry_at(tgt_key),
        )

    def page_map(self, r):
        fc = self.source
        matrices = {}
        for p in fc.p_range:
            for n in fc.ambient.degrees():
                matrices[(p, n - p)] = self.differential(r, p, n - p)
        return PageMap(r, fc, matrices)

    # -- convergence ---------------------------------------------------------

    def limit_comparison(self, strict=True):
        """Check dim E^inf(p, n - p) against graded homology of the ambient.

        gr_p H_n is computed independently as
        dim(ker cap layer(p) + im) - dim(ker cap layer(p-1) + im).
        """
        fc = self.source
        amb = fc.ambient
        inf = self.infinity_page()
        rows = []
        for n in amb.degrees():
            ker = kernel(amb.diff(n))
            bnd = image(amb.diff(n + 1))
            accumulated = {}
            for p in range(fc.p_min - 1, fc.p_max + 1):
                lay = fc.layer(p, n)
                cut = ker if lay.is_full else intersect(ker, lay)
                accumulated[p] = subspace_sum(cut, bnd).dim
            for p in fc.p_range:
                gr = accumulated[p] - accumulated[p - 1]
                einf = inf.entry(p, n - p).dim
                rows.append((n, p, einf, gr, einf == gr))
        report = LimitReport(rows)
        if strict and not report.ok:
            exc = ComparisonFailure(
                "infinity page disagrees with graded homology\n" + report.render()
            )
            exc.report = report
            raise exc
        return report
