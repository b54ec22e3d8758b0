"""Exact sparse linear algebra over a coefficient field.

Every scalar stored here is a raw field value (see fields.py): an int
residue in [0, p) over F_p, an int or a Fraction over QQ.  A matrix is its
sparse columns: a list of {row: scalar} dicts of nonzero scalars, the same
form as the column vectors it acts on.  This module alone decides that
layout; elsewhere a matrix is built from entries or columns and read by
column, and its `entries` keyed by (row, col) are a derived, read-only view.
Subspace bases, quotient representatives and coordinate lists hold raw
values too.  FieldElement values are accepted only where a user hands in
scalars (the Matrix constructors, `scale`) and handed out only by
`Matrix.entry`.  Every sparse update is `_add_multiple`, given the field's
modulus.

Subspaces are kept as reduced column echelon bases with strictly increasing
pivot rows, which makes the representation canonical: two subspaces are
equal exactly when their stored bases are identical.  Two containment
questions are so settled without reducing anything: a space contains an
equal one, and a coordinate subspace (every basis column a unit vector)
holds a vector whose rows are all among its pivots.  `contains` and
`contains_vector` try these first and compute residuals only when they fail.

Elimination: both fields go through one sparse column algorithm.  A lookup
table from pivot row to pivot column lets each incoming column be reduced
against exactly the pivots its own nonzeros meet, as in the standard
persistence algorithm; a last back-substitution pass makes the form
reduced.  Over F_p every pivot is scaled to 1.  Over QQ the elimination is
fraction-free: each column is multiplied by the lcm of its denominators,
pivot columns are kept as primitive integer vectors, an update
col = a*col - f*pc is followed by removing the column's content, and each
pivot column is divided by its pivot once, at the end.  The result does not
depend on which column supplies a pivot or how columns are scaled on the
way, because a reduced column echelon form is unique.  A kernel is read off
one such form of the matrix's rows, taken with the column order reversed:
the kernel vectors come out already in canonical form, so no identity block
is stacked and nothing is eliminated twice.  `_cut`, the vectors of a
subspace that a map sends into another one, is the subspace's basis times
one such kernel; it makes kernels, cycle spaces, preimages, intersections.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import (
    AmbientMismatch,
    MixedFields,
    NotASubspace,
    NotWellDefined,
    ParseError,
)
from .fields import parse_field_token


def _add_multiple(vec, f, col, p=0):
    """vec += f * col in place, for sparse vectors held as {index: scalar}.

    p > 0 reduces every updated entry mod p; p == 0 is exact arithmetic.
    """
    for k, v in col.items():
        cur = vec.get(k)
        cur = cur + f * v if cur is not None else f * v
        if p:
            cur %= p
        if cur:
            vec[k] = cur
        else:
            vec.pop(k, None)


def _combine(columns, vecs, p=0):
    """The sums of vec[j] * columns[j], one new sparse vector per vec in vecs.

    Over QQ a sum of products of Fractions can be integral; it is stored as
    an int, as fields.py asks of every stored rational.
    """
    out = []
    for vec in vecs:
        img = {}
        for j, f in vec.items():
            if img or f != 1:
                _add_multiple(img, f, columns[j], p)
            else:
                # a copy: every reduced basis vector has a 1 at its pivot
                img = dict(columns[j])
        if not p:
            for k, v in img.items():
                if v.__class__ is Fraction and v.denominator == 1:
                    img[k] = v.numerator
        out.append(img)
    return out


class Matrix:
    """Sparse exact matrix held as its columns.

    columns[j] is a {row: scalar} dict of the nonzero raw scalars of column
    j; absent entries are zero.  The matrix owns these dicts: code that
    edits columns in place works on `column_dicts()`, a copy.  `entries`,
    keyed by (row, col), is a read-only view derived from the columns.
    """

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = [{} for _ in range(cols)]
        for (i, j), val in (entries or {}).items():
            val = field.scalar(val)
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
            if val:
                self.columns[j][i] = val

    @classmethod
    def _of_columns(cls, field, rows, columns):
        """The matrix that takes over columns of nonzero raw scalars, unchecked."""
        out = cls.__new__(cls)
        out.field, out.rows, out.cols, out.columns = field, rows, len(columns), columns
        return out

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._of_columns(field, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ValueError("ragged row data")
            for j, val in enumerate(row):
                entries[(i, j)] = val
        return cls(field, rows, cols, entries)

    @classmethod
    def from_column_dicts(cls, field, rows, columns):
        """The matrix of columns given as {row: value} dicts, which it copies."""
        if rows < 0:
            raise ValueError("negative matrix dimensions")
        scalar, cols, out = field.scalar, len(columns), []
        for j, col in enumerate(columns):
            kept = {}
            for i, val in col.items():
                val = scalar(val)
                if not 0 <= i < rows:
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                if val:
                    kept[i] = val
            out.append(kept)
        return cls._of_columns(field, rows, out)

    @property
    def entries(self):
        """{(row, col): scalar} of the nonzero entries, a new dict on each read."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in col.items()}

    def entry(self, i, j):
        return self.field.element(self.columns[j].get(i, 0))

    def column_dicts(self):
        """Copies of the columns, for code that edits them in place."""
        return [dict(col) for col in self.columns]

    def apply_all(self, vecs):
        """Images of column vectors given as dicts {row: scalar}, in order."""
        return _combine(self.columns, vecs, self.field.characteristic)

    def apply(self, vec):
        """Image of a column vector given as a dict {row: scalar}."""
        return self.apply_all([vec])[0]

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise MixedFields("matrix product across fields")
        if self.cols != other.rows:
            raise AmbientMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix._of_columns(self.field, self.rows, self.apply_all(other.columns))

    def _same_shape(self, other):
        if self.field != other.field:
            raise MixedFields("mixed-field matrix arithmetic")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("matrix shapes differ")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        n = self.cols
        sums = [{j: 1, n + j: 1} for j in range(n)]
        columns = _combine(self.columns + other.columns, sums, self.field.characteristic)
        return Matrix._of_columns(self.field, self.rows, columns)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        scalar = self.field.scalar(scalar)
        multiples = [{j: scalar} for j in range(self.cols)]
        columns = _combine(self.columns, multiples, self.field.characteristic)
        return Matrix._of_columns(self.field, self.rows, columns)

    def transpose(self):
        out = Matrix(self.field, self.cols, self.rows)
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out.columns[i][j] = v
        return out

    @property
    def is_zero(self):
        return not any(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.columns == other.columns
        )

    def __repr__(self):
        nonzero = sum(map(len, self.columns))
        return f"<Matrix {self.rows}x{self.cols} over {self.field}, {nonzero} nonzero>"

    def render_text(self):
        """Rows between '|' delimiters, entries right-aligned per column."""
        cells = [
            [self.field.render(col.get(i, 0)) for col in self.columns]
            for i in range(self.rows)
        ]
        widths = [
            max((len(cells[i][j]) for i in range(self.rows)), default=0)
            for j in range(self.cols)
        ]
        lines = []
        for i in range(self.rows):
            body = " ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols))
            lines.append(f"| {body} |" if self.cols else "| |")
        return "\n".join(lines)


def render_matrix_machine(m):
    """Triplet form: header "rows cols field", one "i j scalar" line per entry."""
    lines = [f"{m.rows} {m.cols} {m.field.token()}"]
    for (i, j), v in sorted(m.entries.items()):
        lines.append(f"{i} {j} {m.field.render(v)}")
    lines.append("end")
    return "\n".join(lines)


def parse_matrix_machine(lines):
    """Inverse of render_matrix_machine, read from a text.Lines cursor."""
    head = lines.next("missing matrix header")
    rows, cols = head.ints(head.words[:2], f"bad matrix header {head.text!r}", size=3)
    field = head.build(ParseError, parse_field_token, head.words[2])
    entries = {}
    for line in lines.body("end", "matrix block not closed with 'end'"):
        r, c = line.ints(line.words[:2], f"bad matrix entry {line.text!r}", size=3)
        entries[(r, c)] = line.build(ParseError, field.parse, line.words[2])
    return head.build(IndexError, Matrix, field, rows, cols, entries)


# ---------------------------------------------------------------------------
# elimination engine


def _scaled_step(col, f, pc, a):
    """col = a*col - f*pc over ZZ, clearing the row of pc's pivot a != 1.

    a and f are first divided by their gcd.  If col was scaled, its content
    is removed after the update: that keeps the entries near the size of
    those of the final form, where they would otherwise grow by the product
    of the multipliers a.
    """
    g = gcd(a, f)
    if g != 1:
        a //= g
        f //= g
    if a != 1:
        for k, v in col.items():
            col[k] = a * v
    _add_multiple(col, -f, pc)
    if a != 1:
        g = gcd(*col.values())
        if g > 1:
            for k, v in col.items():
                col[k] = v // g


def _reduce_columns(cols, p, piv=None):
    """Column echelon form, not yet reduced, of sparse columns of raw scalars.

    p > 0 means F_p with int residues: each pivot column is scaled so its
    pivot is 1 and every update is col -= f*pc.  p == 0 means QQ and is
    fraction-free: each column is first multiplied by the lcm of its
    denominators, pivot columns are kept as primitive integer vectors with a
    positive pivot a, and an update is col = a*col - f*pc (`_scaled_step`;
    a pivot of 1 takes the plain update).  Each column is reduced in
    increasing row order against the table of pivots found so far, visiting
    only rows it holds or gains; its first row left with no pivot becomes a
    new pivot.  The column dicts are changed in place.  Returns the table
    {pivot row: pivot column}: piv if given, continued with cols.
    """
    piv = {} if piv is None else piv
    for col in cols:
        if not p:
            for v in col.values():
                if v.__class__ is not int:
                    # an integral Fraction has denominator 1: it becomes an int
                    m = lcm(*[x.denominator for x in col.values()])
                    for k, x in col.items():
                        col[k] = x.numerator * (m // x.denominator)
                    break
        heap = list(col)
        heapify(heap)
        while heap:
            row = heappop(heap)
            f = col.get(row)
            if f is None:
                continue
            pc = piv.get(row)
            if pc is None:
                if f != 1:
                    if p:
                        inv = pow(f, p - 2, p)
                        for k, v in col.items():
                            col[k] = v * inv % p
                    else:
                        # primitive with a positive pivot; the content divides
                        # the pivot, so a pivot of -1 needs no gcd
                        g = 1 if f == -1 else gcd(*col.values())
                        if f < 0:
                            g = -g
                        if g != 1:
                            for k, v in col.items():
                                col[k] = v // g
                piv[row] = col
                break
            for k in pc:
                if k not in col:
                    heappush(heap, k)
            if p or pc[row] == 1:
                _add_multiple(col, -f, pc, p)
            else:
                _scaled_step(col, f, pc, pc[row])
    return piv


def _py_rcef(cols, p):
    """Reduced column echelon form of sparse columns of raw scalars.

    After _reduce_columns, a last pass from the highest pivot row down
    clears the other pivot rows from each pivot column, with the same update.
    Over QQ each pivot column is then divided by its pivot, once, and an
    integral quotient is stored as an int.  Returns the pivot columns
    ordered by pivot row, and the pivot rows.
    """
    piv = _reduce_columns(cols, p)
    order = sorted(piv)
    for row in reversed(order):
        col = piv[row]
        for k in [k for k in col if k != row and k in piv]:
            if p or piv[k][k] == 1:
                _add_multiple(col, -col[k], piv[k], p)
            else:
                _scaled_step(col, col[k], piv[k], piv[k][k])
    if not p:
        for row in order:
            col = piv[row]
            d = col[row]
            if d != 1:
                for k, v in col.items():
                    q, r = divmod(v, d)
                    col[k] = Fraction(v, d) if r else q
    return [piv[row] for row in order], order


def _kernel_columns(rows, labels, units, p):
    """Canonical basis for the kernel of a matrix whose columns carry the
    increasing labels, and the first row of each kernel vector.

    rows are the matrix's nonzero rows with the column labelled j stored at
    index last - j, for last the largest label; kernel vectors are indexed
    by label.  The rows are eliminated once: each pivot row R_k of the
    reduced form, with pivot s_k, says x at last - s_k is minus the sum of
    R_k[t] x at last - t over the free t.  So each free index t gives the
    kernel vector with 1 at last - t and -R_k[t] at last - s_k.  Every
    R_k[t] != 0 has t > s_k, so last - t is the first row of that vector,
    and no other kernel vector meets it: the vectors, taken by decreasing t,
    are already the reduced column echelon form.  units[k] is the unit
    vector at labels[k]; a kernel vector with no other entry is units[k]
    itself, shared and never changed.
    """
    last = labels[-1]
    reduced, pivots = _py_rcef(rows, p)
    kern = dict(zip(labels, units))
    for s, row in zip(pivots, reduced):
        del kern[last - s]
        for t, v in row.items():
            if t != s:
                vec = kern[last - t]
                if len(vec) == 1:
                    # the unit vector handed in: the entries go on a copy
                    vec = kern[last - t] = dict(vec)
                vec[last - s] = p - v if p else -v
    return tuple(kern.values()), tuple(kern)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Linear subspace of k^n held as a canonical reduced column echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis_columns", "pivots", "_indexes")

    def __init__(self, field, ambient_dim, basis_columns, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis_columns = tuple(basis_columns)
        self.pivots = tuple(pivots)
        self._indexes = None

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field, ambient_dim, rows):
        """Span of the unit vectors at rows, given increasing: its own canonical basis."""
        return cls(field, ambient_dim, [{i: 1} for i in rows], tuple(rows))

    @classmethod
    def spanned_by_columns(cls, field, ambient_dim, columns):
        columns = [c for c in columns if c]
        for col in columns:
            for i in col:
                if not 0 <= i < ambient_dim:
                    raise AmbientMismatch(f"coordinate {i} outside k^{ambient_dim}")
        # the engine edits its columns in place, so it gets copies
        cols, pivots = _py_rcef([dict(c) for c in columns], field.characteristic)
        return cls(field, ambient_dim, cols, pivots)

    @classmethod
    def spanned_by(cls, matrix):
        return cls.spanned_by_columns(matrix.field, matrix.rows, matrix.columns)

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def is_zero(self):
        return not self.pivots

    @property
    def is_full(self):
        return len(self.pivots) == self.ambient_dim

    def basis_matrix(self):
        return Matrix.from_column_dicts(self.field, self.ambient_dim, self.basis_columns)

    def _index(self):
        """Pivot row -> basis index, and pivot row -> column for the columns
        with other rows; built once in one assignment, so threads see both."""
        if self._indexes is None:
            self._indexes = (
                {pr: k for k, pr in enumerate(self.pivots)},
                {pr: c for pr, c in zip(self.pivots, self.basis_columns) if len(c) > 1},
            )
        return self._indexes

    def reduce(self, vec):
        """Echelon readoff: coordinates along the basis plus the residual.

        The basis is reduced, so the coordinate along basis column k is the
        vector's own entry at pivot row k.
        """
        index = self._index()[0]
        coords = [0] * len(self.pivots)
        for i in index.keys() & vec.keys():
            coords[index[i]] = vec[i]
        return coords, self.residual(vec)

    def residual(self, vec):
        """What is left of vec after subtracting its part along the basis.

        Subtracting vec's entry at pivot row k times basis column k clears
        that row and, the basis being reduced, no other pivot row.  So the
        residual is vec off the pivot rows, less those multiples of the
        columns that have rows other than their pivot.
        """
        index, tailed = self._index()
        residual = {i: v for i, v in vec.items() if v and i not in index}
        p = self.field.characteristic
        for i in tailed.keys() & vec.keys():
            f = vec[i]
            if f:
                _add_multiple(residual, -f, tailed[i], p)
                residual.pop(i, None)
        return residual

    def contains_vector(self, vec):
        index, tailed = self._index()
        # a coordinate subspace holds every vector on its pivot rows
        return (not tailed and index.keys() >= vec.keys()) or not self.residual(vec)

    def contains(self, other):
        _check_pair(self, other)
        return other == self or all(map(self.contains_vector, other.basis_columns))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis_columns == other.basis_columns
        )

    def __repr__(self):
        return f"<Subspace dim {self.dim} of k^{self.ambient_dim} over {self.field}>"


def _check_pair(a, b):
    if a.field != b.field:
        raise MixedFields("subspaces over different fields")
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces of different ambient spaces")


def echelonize(m):
    """Reduced column echelon form with the same shape; returns (matrix, rank)."""
    cols, pivots = _py_rcef(m.column_dicts(), m.field.characteristic)
    cols += [{} for _ in range(m.cols - len(cols))]
    return Matrix._of_columns(m.field, m.rows, cols), len(pivots)


def rank(m):
    # one pivot per independent column; the back-substitution is not needed
    return len(_reduce_columns(m.column_dicts(), m.field.characteristic))


def image(m):
    return Subspace.spanned_by(m)


def kernel(m):
    if m.is_zero:
        return Subspace.full(m.field, m.cols)
    return _cut(Subspace.full(m.field, m.cols), m, Subspace.zero(m.field, m.rows))


def subspace_sum(a, b):
    _check_pair(a, b)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return Subspace.spanned_by_columns(
        a.field, a.ambient_dim, list(a.basis_columns) + list(b.basis_columns)
    )


def _cut(sub, m, w):
    """The vectors x of sub with m x in w, as a canonical subspace.

    The residual modulo w's reduced basis is a linear map R_w, so with B the
    basis of sub the answer is B K, for K the canonical kernel of R_w m B:
    one elimination.  K's rows are labelled by the pivot rows of B's
    columns.  B is reduced, so column k of B K holds K at those rows: its
    first nonzero is a 1 at K's first row, and it is 0 at the first rows of
    K's other columns.  So B K is canonical as it stands, with K's pivots,
    and it is K itself when every column of B is a unit vector, as for the
    full space and every coordinate layer.  R_w m B is built on its rows,
    as _kernel_columns takes them.  The image of a basis column with no row
    but its pivot r is m's column r, as stored.  R_w subtracts
    row q times entry i of w's basis column at pivot q from each row i, and
    drops w's pivot rows.  When R_w m B = 0 the answer is sub.
    """
    if sub.is_zero or m.is_zero or w.is_full:
        return sub
    p = sub.field.characteristic
    last = sub.pivots[-1]
    # the full space's basis is the identity: m's columns are taken as they are
    columns, tailed = enumerate(m.columns), {}
    if not sub.is_full:
        index, tailed = sub._index()
        columns = [(r, m.columns[r]) for r in index if r not in tailed]
    rows = [{} for _ in range(m.rows)]
    for r, col in columns:
        for i, v in col.items():
            rows[i][last - r] = v
    if tailed:
        for r, y in zip(tailed, m.apply_all(list(tailed.values()))):
            for i, v in y.items():
                rows[i][last - r] = v
    if not w.is_zero:
        windex, wtailed = w._index()
        for q, col in wtailed.items():
            if rows[q]:
                for i, c in col.items():
                    if i != q:
                        _add_multiple(rows[i], -c, rows[q], p)
        for q in windex:
            rows[q] = None
    rows = list(filter(None, rows))
    if not rows:
        return sub
    units = [{j: 1} for j in sub.pivots] if tailed else sub.basis_columns
    kern, firsts = _kernel_columns(rows, sub.pivots, units, p)
    if tailed:
        kern = _combine(dict(zip(sub.pivots, sub.basis_columns)), kern, p)
    return Subspace(sub.field, sub.ambient_dim, kern, firsts)


def intersect(a, b):
    _check_pair(a, b)
    if b.dim < a.dim:
        # the kernel has a column per basis vector of the space cut
        a, b = b, a
    return _cut(a, Matrix.identity(a.field, a.ambient_dim), b)


def preimage(m, w):
    """Subspace of the source sent into w by m."""
    if m.field != w.field:
        raise MixedFields("preimage across fields")
    if m.rows != w.ambient_dim:
        raise AmbientMismatch("preimage target dimension mismatch")
    return _cut(Subspace.full(m.field, m.cols), m, w)


class QuotientPresentation:
    """Subquotient v/w presented on an explicit basis of representatives.

    The representatives are v's basis columns at pivot rows outside w's.
    With w in v, w's pivot rows are v's, so such a column is 0 at all of w's:
    it is its own residual modulo w, and they are the canonical basis of the
    complement.  They share v's column dicts, sound only while no code edits
    a subspace's basis columns in place (the engine is handed copies).
    """

    __slots__ = ("field", "ambient_dim", "space", "relations", "complement")

    def __init__(self, space, relations):
        self.field = space.field
        self.ambient_dim = space.ambient_dim
        self.space = space
        self.relations = relations
        taken = set(relations.pivots)
        kept = {pr: c for pr, c in zip(space.pivots, space.basis_columns) if pr not in taken}
        self.complement = Subspace(self.field, self.ambient_dim, kept.values(), kept)

    @property
    def dim(self):
        return self.complement.dim

    @property
    def rep_columns(self):
        return self.complement.basis_columns

    @property
    def rep_pivots(self):
        return self.complement.pivots

    @property
    def reps(self):
        return self.complement.basis_matrix()

    def coordinates(self, vec):
        """Class coordinates of an ambient vector lying in the numerator."""
        partial = self.relations.residual(vec)
        coords, residual = self.complement.reduce(partial)
        if residual:
            raise NotASubspace("vector outside the presented subquotient")
        # the entries of partial are sums of products, so over QQ an integral
        # one can still be a Fraction
        return [self.field.scalar(c) for c in coords]

    def __eq__(self, other):
        return (
            isinstance(other, QuotientPresentation)
            and (self.space, self.relations) == (other.space, other.relations)
        )

    def __repr__(self):
        return f"<QuotientPresentation dim {self.dim} in k^{self.ambient_dim}>"


def quotient(v, w):
    """Present v/w, with no elimination; raises NotASubspace unless w is in v.

    >>> from specseq.fields import QQ
    >>> v = Subspace.full(QQ, 3)
    >>> q = quotient(v, Subspace.spanned_by_columns(QQ, 3, [{0: 1, 2: 1}]))
    >>> q.rep_pivots, q.rep_columns == v.basis_columns[1:]
    ((1, 2), True)
    """
    if not v.contains(w):
        raise NotASubspace("denominator not contained in numerator")
    return QuotientPresentation(v, w)


def induced_map(m, src, tgt):
    """Matrix of the map that m induces between two quotient presentations."""
    if m.field != src.field or m.field != tgt.field:
        raise MixedFields("induced map across fields")
    if m.cols != src.ambient_dim or m.rows != tgt.ambient_dim:
        raise AmbientMismatch("induced map shape mismatch")
    relations = src.relations.basis_columns
    images = m.apply_all(relations + src.rep_columns)
    for y in images[: len(relations)]:
        if not tgt.relations.contains_vector(y):
            raise NotWellDefined("relations are not carried into relations")
    columns = []
    for y in images[len(relations):]:
        try:
            coords = tgt.coordinates(y)
        except NotASubspace:
            raise NotWellDefined("image leaves the target subquotient") from None
        columns.append({i: c for i, c in enumerate(coords) if c})
    return Matrix._of_columns(m.field, tgt.dim, columns)


def apply_to_subspace(m, sub):
    """The image of a subspace of the source of m, as a subspace of its target."""
    if m.cols != sub.ambient_dim:
        raise AmbientMismatch("matrix does not act on this ambient space")
    if m.field != sub.field:
        raise MixedFields("matrix and subspace over different fields")
    if sub.is_zero or m.is_zero:
        return Subspace.zero(m.field, m.rows)
    return Subspace.spanned_by_columns(m.field, m.rows, m.apply_all(sub.basis_columns))
