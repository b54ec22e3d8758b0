"""Page dimensions of a coordinate filtration from persistence barcodes.

This module shares no code with specseq.  It takes a based chain complex in
which every basis vector ("cell") enters the filtration at one level, runs
one column reduction of the boundary matrix in filtration order
(Edelsbrunner, Letscher and Zomorodian 2002), and reads every page from the
resulting bars (Basu and Parida 2017).  With n = p + q,

    dim E^r(p, q) = #{degree-n bars born at p that live at least r steps
                      or never die}
                  + #{degree-(n-1) bars that die at p after at least r steps}.

A bar keeps the weight (internal degree) of its birth cell, so graded
complexes, whose differentials respect internal degree, get each page split
by internal degree.  Coefficients are residues modulo a prime p, or
fractions.Fraction values for the rationals (``modulus=None``).
"""

from collections import Counter
from fractions import Fraction


class Cell:
    """One basis vector: homological degree, filtration level, weight."""

    __slots__ = ("degree", "level", "weight")

    def __init__(self, degree, level, weight=None):
        self.degree = degree
        self.level = level
        self.weight = weight


class Barcode:
    """The bars of a filtered based complex and the pages they determine."""

    def __init__(self, cells, boundary, modulus=None):
        """cells[j] is a Cell; boundary[j] maps cell index -> coefficient."""
        levels = [c.level for c in cells]
        self.p_min = min(levels, default=0)
        self.p_max = max(levels, default=0)
        self.bars = _reduce(cells, boundary, modulus)

    @property
    def r_star(self):
        """First page index from which every page is the limit page."""
        return self.p_max - self.p_min + 2

    def page(self, r):
        """Counter {(p, q, weight): dim} of E^r, zero entries absent."""
        out = Counter()
        for degree, birth, death, weight in self.bars:
            if death is None or death - birth >= r:
                out[(birth, degree - birth, weight)] += 1
            if death is not None and death - birth >= r:
                out[(death, degree + 1 - death, weight)] += 1
        return out

    def page_dims(self, r):
        """{(p, q): dim} of E^r, zero entries absent."""
        return _collapse(self.page(r))

    def image_rank(self, r, p, q):
        """Counter {weight: count} of the rank of d^r leaving E^r(p, q)."""
        n = p + q
        return Counter(
            weight
            for degree, birth, death, weight in self.bars
            if degree == n - 1 and death == p and birth == p - r
        )

    def graded_homology(self, n, p):
        """dim gr_p H_n: bars of degree n born at p that never die."""
        return sum(
            1
            for degree, birth, death, _ in self.bars
            if degree == n and birth == p and death is None
        )


def _collapse(weighted):
    out = Counter()
    for (p, q, _), count in weighted.items():
        out[(p, q)] += count
    return dict(out)


def _reduce(cells, boundary, modulus):
    """Standard persistence reduction; returns (degree, birth, death, weight) bars."""
    if modulus is None:
        def inverse(x):
            return 1 / Fraction(x)

        def norm(x):
            return Fraction(x)
    else:
        def inverse(x):
            return pow(x, modulus - 2, modulus)

        def norm(x):
            return x % modulus

    order = sorted(range(len(cells)), key=lambda j: (cells[j].level, cells[j].degree, j))
    position = {j: k for k, j in enumerate(order)}
    owner = {}  # position of a pivot row -> the reduced column that owns it
    columns = {}
    for k, j in enumerate(order):
        cell = cells[j]
        col = {}
        for i, value in boundary[j].items():
            face = cells[i]
            if face.degree != cell.degree - 1 or face.level > cell.level:
                raise ValueError(f"cell {j} has a face {i} outside its filtration step")
            value = norm(value)
            if value:
                col[position[i]] = value
        while col:
            low = max(col)
            other = owner.get(low)
            if other is None:
                break
            pivot = columns[other]
            factor = col[low] * inverse(pivot[low])
            for row, value in pivot.items():
                new = norm(col.get(row, 0) - factor * value)
                if new:
                    col[row] = new
                else:
                    col.pop(row, None)
        if col:
            low = max(col)
            if cells[order[low]].weight != cell.weight:
                raise ValueError(f"cell {j} kills a class of another weight")
            owner[low] = k
            columns[k] = col
    bars = []
    for k, j in enumerate(order):
        cell = cells[j]
        if k in columns:
            continue  # a negative cell: it ends the bar of its pivot row
        death_pos = owner.get(k)
        death = None if death_pos is None else cells[order[death_pos]].level
        bars.append((cell.degree, cell.level, death, cell.weight))
    return bars


# ---------------------------------------------------------------------------
# comparing reported answers with the oracle


def page_mismatches(label, reported, expected):
    """Differences between two {(p, q): dim-or-Counter} tables, zeros dropped."""
    problems = []
    keys = {k for k, v in reported.items() if v} | {k for k, v in expected.items() if v}
    for key in sorted(keys):
        got, want = reported.get(key), expected.get(key)
        if got != want:
            problems.append(f"{label} at {key}: reported {got}, oracle {want}")
    return problems


def weighted_table(page):
    """{(p, q): {weight: count}} from a Barcode.page Counter."""
    out = {}
    for (p, q, weight), count in page.items():
        out.setdefault((p, q), Counter())[weight] += count
    return {key: dict(sorted(c.items())) for key, c in out.items()}
