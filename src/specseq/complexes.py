"""Bounded chain complexes of labeled finite-dimensional vector spaces.

Terms live in a finite window of homological degrees lo ... hi, each with
an ordered basis of opaque hashable labels.  Differentials drop degree by
one and are checked to compose to zero.  A complex holds one differential
per degree lo ... hi + 1, the zero ones built once with it; every other
degree maps 0 to 0, and `diff` returns one shared 0x0 zero there.  Tensor
products follow the Koszul sign rule (the sign (-1)^i rides on the second
factor's differential), and Hom complexes use d(f) = d o f - (-1)^n f o d.

Block layout, shared by tensor, hom_complex and the filtrations built on
them: (c tensor d)_n is the sum of the blocks c_i tensor d_j with j = n - i,
and Hom(c, d)_n that of the blocks Hom(c_i, d_j) with j = i + n.  Blocks
with a zero factor are left out; the rest are stacked by increasing i.  In
the block (i, j) at offset start, basis vector a tensor b has label (i, a, b)
and index start + a * dim d_j + b; for Hom it is the matrix unit sending
basis vector a of c_i to basis vector b of d_j.  On this layout the tensor
differential is d_c tensor 1 + (-1)^i 1 tensor d_d and the Hom differential
1 tensor d_d - (-1)^n (d_c)^T tensor 1, each built block by block from
Kronecker products.
"""

from .errors import AmbientMismatch, MixedFields, NotAComplex, ParseError
from .fields import parse_field_token
from .linalg import (
    Matrix,
    image,
    kernel,
    parse_matrix_machine,
    quotient,
    render_matrix_machine,
)


class ChainComplex:
    """A bounded complex; degrees with no listed basis are zero."""

    __slots__ = ("field", "_labels", "_diffs", "_zero", "lo", "hi")

    def __init__(self, field, labels, diffs=None, validate=True):
        self.field = field
        self._labels = {}
        for n, labs in labels.items():
            labs = tuple(labs)
            if not labs:
                continue
            if len(set(labs)) != len(labs):
                raise ValueError(f"duplicate basis labels in degree {n}")
            self._labels[n] = labs
        if self._labels:
            self.lo = min(self._labels)
            self.hi = max(self._labels)
        else:
            self.lo, self.hi = 0, -1
        self._diffs = {
            n: Matrix(field, self.dim(n - 1), self.dim(n)) for n in range(self.lo, self.hi + 2)
        }
        for n, m in (diffs or {}).items():
            if not m.is_zero:
                self._diffs[n] = m
        self._zero = Matrix(field, 0, 0)
        if validate:
            self.validate()

    def validate(self):
        for n, m in self._diffs.items():
            if m.field != self.field:
                raise MixedFields(f"differential in degree {n} over the wrong field")
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                raise NotAComplex(
                    f"differential in degree {n} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dim(n - 1)}x{self.dim(n)}"
                )
        for n, m in self._diffs.items():
            if not (m @ self.diff(n + 1)).is_zero:
                raise NotAComplex(f"d o d is nonzero out of degree {n + 1}")

    def dim(self, n):
        return len(self._labels.get(n, ()))

    def term_labels(self, n):
        return self._labels.get(n, ())

    def diff(self, n):
        return self._diffs.get(n, self._zero)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @property
    def is_zero(self):
        return not self._labels

    def total_dim(self):
        return sum(len(v) for v in self._labels.values())

    def euler_characteristic(self):
        return sum((-1) ** n * len(labs) for n, labs in self._labels.items())

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.field == other.field
            and self._labels == other._labels
            and self._diffs == other._diffs
        )

    def __repr__(self):
        dims = " ".join(f"{n}:{self.dim(n)}" for n in self.degrees())
        return f"<ChainComplex over {self.field} [{dims}]>"


def homology(c, n):
    """H_n as a quotient presentation inside the degree-n term."""
    return quotient(kernel(c.diff(n)), image(c.diff(n + 1)))


def homology_rank(c, n):
    return homology(c, n).dim


class ChainMap:
    """Degreewise linear map commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components, validate=True):
        if source.field != target.field:
            raise MixedFields("chain map across fields")
        self.source = source
        self.target = target
        self.components = {n: m for n, m in components.items() if not m.is_zero}
        if validate:
            self.validate()

    def validate(self):
        for n, m in self.components.items():
            if m.rows != self.target.dim(n) or m.cols != self.source.dim(n):
                raise AmbientMismatch(f"component {n} has the wrong shape")
        degrees = set(self.components)
        degrees |= {n + 1 for n in degrees}
        for c in (self.source, self.target):
            degrees |= {n for n, d in c._diffs.items() if not d.is_zero}
        for n in degrees:
            left = self.target.diff(n) @ self.component(n)
            right = self.component(n - 1) @ self.source.diff(n)
            if left != right:
                raise NotAComplex(f"square at degree {n} does not commute")

    def component(self, n):
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(self.source.field, self.target.dim(n), self.source.dim(n))
        return m

    @classmethod
    def identity(cls, c):
        comps = {n: Matrix.identity(c.field, c.dim(n)) for n in c.degrees()}
        return cls(c, c, comps, validate=False)


def shift(c, s):
    """Degree shift: term(n) = c.term(n - s), differential scaled by (-1)^s."""
    sign = -1 if s % 2 else 1
    labels = {n + s: c.term_labels(n) for n in c.degrees()}
    diffs = {n + s: c.diff(n).scale(sign) for n in c.degrees()}
    return ChainComplex(c.field, labels, diffs, validate=False)


def _blocks(c, d, n, hom=False):
    """The blocks (i, j, start) of (c tensor d)_n, or of Hom(c, d)_n when hom is set."""
    out = []
    start = 0
    for i in range(c.lo, c.hi + 1):
        j = i + n if hom else n - i
        if c.dim(i) and d.dim(j):
            out.append((i, j, start))
            start += c.dim(i) * d.dim(j)
    return out


def _kron(u, v, v_dim, start):
    """Columns of u tensor v, u major, for v of height v_dim, shifted by start.

    One factor is a list of columns and the other an int k, standing for the
    identity of size k, so every value is copied and none is multiplied.
    """
    if isinstance(u, int):
        return [{start + a * v_dim + b: y for b, y in col.items()} for a in range(u) for col in v]
    return [{start + a * v_dim + b: x for a, x in col.items()} for col in u for b in range(v)]


def _signed_columns(m):
    """The columns of m and of -m: entry s holds those of (-1)^s m."""
    return m.columns, (-m).columns


def _product_complex(c, d, degrees, hom, terms):
    """The product complex: labels (i, a, b) per block, differentials from Kronecker terms.

    terms(n, i, j) yields, for the source block (i, j) of degree n, the
    nonzero terms as tuples (i', u, v, v_dim), with u, v, v_dim as _kron takes
    them: u tensor v lands in the block of degree n - 1 whose first index is
    i'.  Entries are copies of the factors' raw values, so they are stored as
    they are.
    """
    blocks = {n: _blocks(c, d, n, hom) for n in degrees}
    labels = {}
    for n, layout in blocks.items():
        labs = [
            (i, a, b)
            for i, j, _ in layout
            for a in c.term_labels(i)
            for b in d.term_labels(j)
        ]
        if labs:
            labels[n] = labs
    diffs = {}
    for n in labels:
        target = {i: start for i, _, start in blocks.get(n - 1, ())}
        m = Matrix(c.field, len(labels.get(n - 1, ())), len(labels[n]))
        for i, j, start in blocks[n]:
            for ti, u, v, v_dim in terms(n, i, j):
                for k, col in enumerate(_kron(u, v, v_dim, target[ti]), start):
                    m.columns[k].update(col)
        diffs[n] = m
    return ChainComplex(c.field, labels, diffs)


def tensor(c, d):
    if c.field != d.field:
        raise MixedFields("tensor across fields")
    dc = {i: m.columns for i, m in c._diffs.items() if not m.is_zero}
    dd = {j: _signed_columns(m) for j, m in d._diffs.items() if not m.is_zero}

    def terms(n, i, j):
        if i in dc:
            yield i - 1, dc[i], d.dim(j), d.dim(j)
        if j in dd:
            yield i, c.dim(i), dd[j][i % 2], d.dim(j - 1)

    return _product_complex(c, d, range(c.lo + d.lo, c.hi + d.hi + 1), False, terms)


def hom_complex(c, d):
    """Hom(c, d) with matrix-unit basis labels (i, a, b); requires bounded inputs."""
    if c.field != d.field:
        raise MixedFields("Hom across fields")
    dd = {j: m.columns for j, m in d._diffs.items() if not m.is_zero}
    dc_rows = {i - 1: _signed_columns(m.transpose()) for i, m in c._diffs.items() if not m.is_zero}

    def terms(n, i, j):
        if j in dd:
            yield i, c.dim(i), dd[j], d.dim(j - 1)
        if i in dc_rows:
            yield i + 1, dc_rows[i][(n + 1) % 2], d.dim(j), d.dim(j)

    return _product_complex(c, d, range(d.lo - c.hi, d.hi - c.lo + 1), True, terms)


# ---------------------------------------------------------------------------
# plain-text format


def _label_token(label):
    return str(label).replace(" ", "")


def render_complex(c):
    lines = [f"complex {c.field.token()} {c.lo} {c.hi}"]
    for n in c.degrees():
        if c.dim(n):
            toks = " ".join(_label_token(l) for l in c.term_labels(n))
            lines.append(f"term {n} : {toks}")
    for n in c.degrees():
        m = c.diff(n)
        if not m.is_zero:
            lines.append(f"diff {n}")
            lines.append(render_matrix_machine(m))
    lines.append("end-complex")
    return "\n".join(lines)


def parse_complex(lines):
    """Inverse of render_complex, read from a text.Lines cursor."""
    head = lines.header("complex", size=4)
    field = head.build(ParseError, parse_field_token, head.words[1])
    head.ints(head.words[2:], f"bad complex header {head.text!r}")
    labels = {}
    diffs = {}
    for line in lines.body("end-complex", "complex block not closed"):
        if line.words[0] == "term":
            headpart, _, labpart = line.text.partition(":")
            parts = headpart.split()
            bad = f"bad term line {line.text!r}"
            if len(parts) != 2:
                raise line.error(bad)
            (n,) = line.ints(parts[1:], bad)
            labels[n] = tuple(labpart.split())
        elif line.words[0] == "diff":
            (n,) = line.ints(line.words[1:], f"bad diff line {line.text!r}", size=2)
            m = parse_matrix_machine(lines)
            if m.field != field:
                raise line.error(f"differential {n} over the wrong field")
            diffs[n] = m
        else:
            raise line.unexpected()
    return head.build((NotAComplex, ValueError), ChainComplex, field, labels, diffs)
