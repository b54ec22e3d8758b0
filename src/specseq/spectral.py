"""The spectral sequence of a bounded filtered chain complex.

Everything is lazy: constructing a SpectralSequence performs no linear
algebra, and all cycle subspaces, page entries, and page maps are memoized
on first use.  The cycle spaces

    Z^r(p, q) = layer(p, n) cap d^{-1}(layer(p - r, n - 1)),   n = p + q,

only depend on the clamped pair of filtration indices, so the memo key
clamps both into [p_min - 1, p_max]; stabilization beyond the filtration
width then falls out of the key arithmetic.  For coordinate layers, whose
basis columns are all unit vectors, Z^r(p, q) = ker(d restricted to the
columns of F_p and the rows outside F_{p-r}): one kernel in place of a
preimage and an intersection.  Page entries are the standard subquotients

    E^r(p, q) = Z^r(p, q) / (Z^{r-1}(p-1, q+1) + d Z^{r-1}(p+r-1, q-r+2)),

and page maps are induced by the ambient differential on representatives.
`limit_comparison` keeps to kernel, image, intersect and subspace_sum: its
E^inf check shares no code with the coordinate kernel.  The memo tables take
no lock; dict.setdefault, atomic under the GIL, keeps the first value stored.
"""

from .errors import ComparisonFailure
from .linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    image,
    induced_map,
    intersect,
    kernel,
    preimage,
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


def _coordinate_cycles(d, cols, dropped):
    """Kernel of d on the unit vectors at cols, with the rows in dropped ignored.

    Kernel index k lifts to cols[k]; cols increases, so the lifted basis is
    still the reduced column echelon form of the same subspace.
    """
    index = {j: k for k, j in enumerate(cols)}
    restricted = Matrix(d.field, d.rows, len(cols))
    restricted.entries = {
        (i, index[j]): v for (i, j), v in d.entries.items() if j in index and i not in dropped
    }
    ker = kernel(restricted)
    lifted = [{cols[k]: v for k, v in c.items()} for c in ker.basis_columns]
    return Subspace(d.field, d.cols, lifted, [cols[k] for k in ker.pivots])


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
        if key in table:
            return table[key]
        return table.setdefault(key, compute())

    # -- cycle subspaces ----------------------------------------------------

    def cycles(self, r, p, q):
        fc = self.source
        n = p + q
        if r <= 0:
            return fc.layer(p, n)
        floor = fc.p_min - 1
        cap_hi = max(min(p, fc.p_max), floor)
        cap_lo = max(min(p - r, fc.p_max), floor)
        key = (cap_hi, cap_lo, n)
        return self._memo(
            self._cycles, key, lambda: self._compute_cycles(cap_hi, cap_lo, n)
        )

    def _compute_cycles(self, cap_hi, cap_lo, n):
        fc = self.source
        top = fc.layer(cap_hi, n)
        if top.is_zero:
            return top
        target = fc.layer(cap_lo, n - 1)
        d = fc.ambient.diff(n)
        if target.is_full or d.is_zero:
            return top
        if all(len(c) == 1 for c in top.basis_columns + target.basis_columns):
            return _coordinate_cycles(d, top.pivots, set(target.pivots))
        return intersect(top, preimage(d, target))

    # -- pages ---------------------------------------------------------------

    def entry(self, r, p, q):
        if r < 0:
            raise ValueError("page index must be nonnegative")
        r_eff = min(r, self.r_star)
        key = (r_eff, p, q)
        return self._memo(
            self._entries, key, lambda: self._compute_entry(r_eff, p, q)
        )

    def _compute_entry(self, r, p, q):
        numerator = self.cycles(r, p, q)
        below = self.cycles(r - 1, p - 1, q + 1)
        arriving = apply_to_subspace(
            self.source.ambient.diff(p + q + 1), self.cycles(r - 1, p + r - 1, q - r + 2)
        )
        return quotient(numerator, subspace_sum(below, arriving))

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
        key = (r, p, q)
        return self._memo(self._diffs, key, lambda: self._compute_diff(r, p, q))

    def _compute_diff(self, r, p, q):
        src = self.entry(r, p, q)
        tgt = self.entry(r, p - r, q + r - 1)
        return induced_map(self.source.ambient.diff(p + q), src, tgt)

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
