"""Bounded chain complexes of labeled finite-dimensional vector spaces.

Terms live in a finite window of homological degrees, each with an ordered
basis of opaque hashable labels.  Differentials drop degree by one and are
checked to compose to zero.  Tensor products follow the Koszul sign rule
(the sign (-1)^i rides on the second factor's differential), and Hom
complexes use d(f) = d o f - (-1)^n f o d.
"""

from .errors import AmbientMismatch, MixedFields, NotAComplex, ParseError
from .fields import parse_field_token
from .linalg import (
    Matrix,
    _add_multiple,
    image,
    kernel,
    parse_matrix_machine,
    quotient,
    render_matrix_machine,
)


class ChainComplex:
    """A bounded complex; degrees with no listed basis are zero."""

    __slots__ = ("field", "_labels", "_diffs", "lo", "hi")

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
        self._diffs = {}
        for n, m in (diffs or {}).items():
            if m.is_zero:
                continue
            self._diffs[n] = m
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
        for n in list(self._diffs):
            if n + 1 in self._diffs:
                if not (self._diffs[n] @ self._diffs[n + 1]).is_zero:
                    raise NotAComplex(f"d o d is nonzero out of degree {n + 1}")

    def dim(self, n):
        return len(self._labels.get(n, ()))

    def term_labels(self, n):
        return self._labels.get(n, ())

    def diff(self, n):
        m = self._diffs.get(n)
        if m is None:
            return Matrix.zeros(self.field, self.dim(n - 1), self.dim(n))
        return m

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
            and all(
                self.diff(n) == other.diff(n)
                for n in set(self._diffs) | set(other._diffs)
            )
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
        degrees |= set(self.source._diffs) | set(self.target._diffs)
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


def _tensor_layout(c, d, n):
    """Block starts for (c tensor d)_n, ordered by increasing c-degree."""
    layout = []
    base = 0
    for i in range(c.lo, c.hi + 1):
        j = n - i
        di, dj = c.dim(i), d.dim(j)
        if di and dj:
            layout.append((i, j, base))
            base += di * dj
    return layout, base


def tensor(c, d):
    if c.field != d.field:
        raise MixedFields("tensor across fields")
    field = c.field
    if c.is_zero or d.is_zero:
        return ChainComplex(field, {})
    labels = {}
    layouts = {}
    for n in range(c.lo + d.lo, c.hi + d.hi + 1):
        layout, total = _tensor_layout(c, d, n)
        layouts[n] = {i: base for i, _, base in layout}
        if not total:
            continue
        labs = []
        for i, j, _ in layout:
            for a in c.term_labels(i):
                for b in d.term_labels(j):
                    labs.append((i, a, b))
        labels[n] = labs
    diffs = {}
    p = field.characteristic
    c_cols = {i: c.diff(i).column_dicts() for i in c.degrees()}
    d_cols = {j: d.diff(j).column_dicts() for j in d.degrees()}
    for n in labels:
        entries = {}
        prev = layouts.get(n - 1, {})
        for i, j, base in _tensor_layout(c, d, n)[0]:
            di, dj = c.dim(i), d.dim(j)
            sign = -1 if i % 2 else 1
            for ai in range(di):
                ccol = c_cols[i][ai] if c.dim(i - 1) else {}
                for bj in range(dj):
                    src = base + ai * dj + bj
                    if i - 1 in prev and c.dim(i - 1):
                        tbase = prev[i - 1]
                        for a2, v in ccol.items():
                            entries[(tbase + a2 * dj + bj, src)] = v
                    if i in prev and d.dim(j - 1):
                        tbase = prev[i] + ai * d.dim(j - 1)
                        col = {(tbase + b2, src): w for b2, w in d_cols[j][bj].items()}
                        _add_multiple(entries, sign, col, p)
        if entries:
            rows = len(labels.get(n - 1, ()))
            diffs[n] = Matrix(field, rows, len(labels[n]), entries)
    return ChainComplex(field, labels, diffs)


def _hom_layout(c, d, n):
    layout = []
    base = 0
    for i in range(c.lo, c.hi + 1):
        di, dj = c.dim(i), d.dim(i + n)
        if di and dj:
            layout.append((i, base))
            base += di * dj
    return layout, base


def hom_complex(c, d):
    """Hom(c, d) with matrix-unit basis labels (i, a, b); requires bounded inputs."""
    if c.field != d.field:
        raise MixedFields("Hom across fields")
    field = c.field
    if c.is_zero or d.is_zero:
        return ChainComplex(field, {})
    labels = {}
    for n in range(d.lo - c.hi, d.hi - c.lo + 1):
        layout, total = _hom_layout(c, d, n)
        if not total:
            continue
        labs = []
        for i, _ in layout:
            for a in c.term_labels(i):
                for b in d.term_labels(i + n):
                    labs.append((i, a, b))
        labels[n] = labs
    diffs = {}
    for n in labels:
        entries = {}
        prev_layout, prev_total = _hom_layout(c, d, n - 1)
        if not prev_total:
            continue
        prev = {i: base for i, base in prev_layout}
        sign = -1 if n % 2 else 1
        p = field.characteristic
        for i, base in _hom_layout(c, d, n)[0]:
            di, dj = c.dim(i), d.dim(i + n)
            dd_cols = d.diff(i + n).column_dicts() if d.dim(i + n - 1) else None
            dc = c.diff(i + 1)
            for ai in range(di):
                for bj in range(dj):
                    src = base + ai * dj + bj
                    if i in prev and dd_cols is not None:
                        tbase = prev[i]
                        dj1 = d.dim(i + n - 1)
                        for b2, w in dd_cols[bj].items():
                            entries[(tbase + ai * dj1 + b2, src)] = w
                    if i + 1 in prev and c.dim(i + 1):
                        tbase = prev[i + 1]
                        col = {
                            (tbase + k * dj + bj, src): alpha
                            for (row, k), alpha in dc.entries.items()
                            if row == ai
                        }
                        _add_multiple(entries, -sign, col, p)
        if entries:
            diffs[n] = Matrix(field, len(labels.get(n - 1, ())), len(labels[n]), entries)
    return ChainComplex(field, labels, diffs)


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


def parse_complex(lines, start=0):
    if start >= len(lines):
        raise ParseError("missing complex block", line=start + 1)
    head = lines[start].split()
    if len(head) != 4 or head[0] != "complex":
        raise ParseError(f"bad complex header {lines[start]!r}", line=start + 1)
    field = parse_field_token(head[1])
    labels = {}
    diffs = {}
    i = start + 1
    while True:
        if i >= len(lines):
            raise ParseError("complex block not closed", line=len(lines))
        text = lines[i].strip()
        if text == "end-complex":
            i += 1
            break
        if text.startswith("term "):
            headpart, _, labpart = text.partition(":")
            parts = headpart.split()
            if len(parts) != 2:
                raise ParseError(f"bad term line {text!r}", line=i + 1)
            try:
                labels[int(parts[1])] = tuple(labpart.split())
            except ValueError:
                raise ParseError(f"bad term line {text!r}", line=i + 1) from None
            i += 1
        elif text.startswith("diff "):
            try:
                n = int(text.split()[1])
            except ValueError:
                raise ParseError(f"bad diff line {text!r}", line=i + 1) from None
            m, i = parse_matrix_machine(lines, i + 1)
            if m.field != field:
                raise ParseError(f"differential {n} over the wrong field", line=i)
            diffs[n] = m
        elif not text or text.startswith("#"):
            i += 1
        else:
            raise ParseError(f"unexpected line {text!r}", line=i + 1)
    try:
        return ChainComplex(field, labels, diffs), i
    except (NotAComplex, ValueError) as exc:
        raise ParseError(str(exc), line=start + 1) from None
