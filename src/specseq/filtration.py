"""Bounded increasing filtrations of chain complexes.

A filtration assigns to each index p in [p_min, p_max] and each degree n a
subspace of the ambient term, increasing in p, exhaustive at p_max, and
closed under the differential.  Each degree of the ambient holds one table
of its layers p_min - 1, ..., p_max, whose first entry is the zero subspace
(shared with every layer that was not given).  A layer equal to the one
below it is that same object, and a second table per degree holds, for each
slot, the least index whose layer is equal: the spectral sequence keys its
memo tables on those indices, so equal layers share their work.  A query
outside the window clamps into the table: below it reads the zero entry,
above it the top layer, which validate checks is the full term.  That keeps
boundary arithmetic in the spectral sequence uniform.
"""

from .complexes import _blocks, _kron, hom_complex, parse_complex, render_complex, tensor
from .errors import MixedFields, NotNested
from .linalg import QuotientPresentation, Subspace, image
from .linalg import parse_matrix_machine, render_matrix_machine
from .simplicial import _face_positions, reduced_chain_complex


class FilteredComplex:
    __slots__ = (
        "ambient", "p_min", "p_max", "_table", "_first", "_outside", "_first_outside", "_fresh"
    )

    def __init__(self, ambient, layers):
        self.ambient = ambient
        if not layers:
            raise ValueError("a filtration needs at least one level")
        self.p_min = min(layers)
        self.p_max = max(layers)
        if set(layers) != set(range(self.p_min, self.p_max + 1)):
            raise ValueError("filtration indices must form an integer interval")
        field = ambient.field
        # a degree outside the ambient is k^0, answered by one zero space
        self._outside = (Subspace.zero(field, 0),)
        size = self.p_max - self.p_min + 2
        self._first_outside = (self.p_min - 1,) * size
        table = {n: [Subspace.zero(field, ambient.dim(n))] * size for n in ambient.degrees()}
        for p, per_degree in layers.items():
            for n, sub in per_degree.items():
                if sub.field != field:
                    raise MixedFields(f"layer ({p}, {n}) over the wrong field")
                if sub.ambient_dim != ambient.dim(n):
                    raise ValueError(f"layer ({p}, {n}) has the wrong ambient dimension")
                if n in table:
                    table[n][p - self.p_min + 1] = sub
        # a layer equal to the one below it becomes that object, and _first[n]
        # holds, per slot, the least index whose layer is equal
        self._first = {}
        for n, column in table.items():
            least = [self.p_min - 1]
            for k in range(1, size):
                if column[k] == column[k - 1]:
                    column[k] = column[k - 1]
                    least.append(least[-1])
                else:
                    least.append(self.p_min - 1 + k)
            self._first[n] = tuple(least)
        self._table = {n: tuple(column) for n, column in table.items()}
        self._fresh = {}
        self.validate()

    @property
    def p_range(self):
        return range(self.p_min, self.p_max + 1)

    def layer(self, p, n):
        column = self._table.get(n, self._outside)
        k = p - self.p_min + 1
        return column[0 if k < 0 else k if k < len(column) else -1]

    def fresh_columns(self, n):
        """For each layer p_min - 1, ..., p_max of a degree n of the ambient,
        its basis columns whose pivot row is no pivot of the layer below: the
        representatives of its quotient by that layer.  Pivot rows grow with
        the layers, so the fresh columns of the layers up to p span layer p.
        Layers never change, so each degree's tuple is computed once."""
        fresh = self._fresh.get(n)
        if fresh is None:
            column = self._table[n]
            quotients = map(QuotientPresentation, column[1:], column)
            fresh = (column[0].basis_columns, *(q.rep_columns for q in quotients))
            fresh = self._fresh.setdefault(n, fresh)
        return fresh

    def validate(self):
        for n, column in self._table.items():
            if not column[-1].is_full:
                raise ValueError(f"top layer is not the full term in degree {n}")
            for p, (low, high) in enumerate(zip(column, column[1:]), self.p_min):
                if not high.contains(low):
                    raise NotNested(f"layer ({p - 1}, {n}) not inside layer ({p}, {n})")
            d = self.ambient.diff(n)
            if d.is_zero:
                continue
            # a fresh column closed at its own layer is closed at every layer
            # above it, and the fresh columns up to p span layer p
            for p, cols in enumerate(self.fresh_columns(n)[1:], self.p_min):
                below = self.layer(p, n - 1)
                if not below.is_full and not all(map(below.contains_vector, d.apply_all(cols))):
                    raise ValueError(f"layer ({p}, {n}) is not closed under the differential")

    def __eq__(self, other):
        return (
            isinstance(other, FilteredComplex)
            and self.ambient == other.ambient
            and self.p_min == other.p_min
            and self.p_max == other.p_max
            and self._table == other._table
        )

    def __repr__(self):
        return (
            f"<FilteredComplex p in [{self.p_min}, {self.p_max}] "
            f"over {self.ambient.field}>"
        )


def _nested_filtration(ambient, images, shift=0):
    """Filtration by per-degree subspaces {n: Subspace}, as from_chain_maps;
    validate raises NotNested unless they are totally ordered by inclusion."""
    degrees = list(ambient.degrees())
    images = sorted(images, key=lambda img: -sum(img[n].dim for n in degrees))
    layers = {}
    if not all(images[0][n].is_full for n in degrees):
        layers[len(images) + shift] = {
            n: Subspace.full(ambient.field, ambient.dim(n)) for n in degrees
        }
    for k, img in enumerate(images):
        layers[len(images) - 1 - k + shift] = img
    return FilteredComplex(ambient, layers)


def from_chain_maps(maps, shift=0):
    """Filtration whose layers are the images of chain maps into one target.

    The largest image gets the top index; listing the maps largest first is
    the expected usage and keeps the listed order.  Images must be totally
    ordered by inclusion.  If the top image misses part of the target, an
    extra full level is appended above it so the result is exhaustive.
    """
    if not maps:
        raise ValueError("need at least one chain map")
    ambient = maps[0].target
    for f in maps:
        if f.source.field != ambient.field:
            raise MixedFields("chain maps over different fields")
        if f.target != ambient:
            raise ValueError("all chain maps must share one target")
    images = [{n: image(f.component(n)) for n in ambient.degrees()} for f in maps]
    return _nested_filtration(ambient, images, shift)


def from_simplicial(complexes, field, reduced=True):
    """Filtration by a descending list of subcomplexes of the first entry.

    A subcomplex's layer is the image of its inclusion: the unit vectors at
    its faces in the chain complex of the first entry, which is built once.
    """
    if not complexes:
        raise ValueError("need at least one simplicial complex")
    top = complexes[0]
    ambient = reduced_chain_complex(top, field, reduced=reduced)
    positions = [_face_positions(s, top) for s in complexes]
    images = [
        {
            n: Subspace.coordinate(field, ambient.dim(n), sorted(pos.get(n, ())))
            for n in ambient.degrees()
        }
        for pos in positions
    ]
    return _nested_filtration(ambient, images)


def truncation_filtration(c):
    """Brutal truncation from above: layer p keeps the terms in degrees <= p."""
    if c.is_zero:
        return FilteredComplex(c, {0: {}})
    return from_basis_levels(c, {n: [n] * c.dim(n) for n in c.degrees()})


def _product_filtration(ambient, c, d, fd, mirrored, hom=False):
    """The filtration of the tensor (or, with hom set, Hom) ambient of c and d.

    fd filters c when mirrored is set and d otherwise; block (i, j) of
    layer(p, n) is layer(p, i) (x) d_j or c_i (x) layer(p, j).
    """
    blocks = {n: _blocks(c, d, n, hom) for n in ambient.degrees()}
    layers = {}
    for p in fd.p_range:
        per = {}
        for n, layout in blocks.items():
            cols = []
            for i, j, start in layout:
                if mirrored:
                    cols += _kron(fd.layer(p, i).basis_columns, d.dim(j), d.dim(j), start)
                else:
                    cols += _kron(c.dim(i), fd.layer(p, j).basis_columns, d.dim(j), start)
            per[n] = Subspace.spanned_by_columns(ambient.field, ambient.dim(n), cols)
        layers[p] = per
    return FilteredComplex(ambient, layers)


def tensor_filtration(a, b):
    """Filter a tensor product through whichever factor is filtered.

    With the second argument filtered, layer(p, n) = sum_j a_{n-j} (x)
    layer_b(p, j); with the first filtered, layer(p, n) = sum_i
    layer_a(p, i) (x) b_{n-i}.  Exactly one argument may be filtered.
    """
    if isinstance(a, FilteredComplex) == isinstance(b, FilteredComplex):
        raise TypeError("exactly one tensor factor must be filtered")
    mirrored = isinstance(a, FilteredComplex)
    fd = a if mirrored else b
    c, d = (a.ambient, b) if mirrored else (a, b.ambient)
    if c.field != d.field:
        raise MixedFields("tensor factors over different fields")
    return _product_filtration(tensor(c, d), c, d, fd, mirrored)


def hom_filtration(c, fd):
    """Filter Hom(c, target of fd) by layer(p, n) = sum_i Hom(c_i, layer(p, i+n))."""
    if not isinstance(fd, FilteredComplex):
        raise TypeError("second argument must be filtered")
    if c.field != fd.ambient.field:
        raise MixedFields("Hom arguments over different fields")
    return _product_filtration(hom_complex(c, fd.ambient), c, fd.ambient, fd, False, hom=True)


def from_basis_levels(ambient, levels):
    """Coordinate filtration: basis vector k of term n enters at levels[n][k].
    The layers that hold it share one unit column {k: 1}."""
    field = ambient.field
    all_levels = [lv for per in levels.values() for lv in per]
    if not all_levels:
        raise ValueError("no basis vectors to filter")
    units = {}
    for n in ambient.degrees():
        lvls = levels.get(n, [])
        if len(lvls) != ambient.dim(n):
            raise ValueError(f"need one level per basis vector in degree {n}")
        units[n] = [(lv, {k: 1}) for k, lv in enumerate(lvls)]
    layers = {}
    for p in range(min(all_levels), max(all_levels) + 1):
        layers[p] = {}
        for n, unit in units.items():
            kept = {k: col for k, (lv, col) in enumerate(unit) if lv <= p}
            layers[p][n] = Subspace(field, ambient.dim(n), kept.values(), kept)
    return FilteredComplex(ambient, layers)


# ---------------------------------------------------------------------------
# plain-text format


def render_filtered(fc):
    lines = [f"filtered {fc.p_min} {fc.p_max}"]
    lines.append(render_complex(fc.ambient))
    for p in fc.p_range:
        for n in fc.ambient.degrees():
            sub = fc.layer(p, n)
            if sub.is_full:
                lines.append(f"layer {p} {n} full")
            elif sub.is_zero:
                lines.append(f"layer {p} {n} zero")
            else:
                lines.append(f"layer {p} {n}")
                lines.append(render_matrix_machine(sub.basis_matrix()))
    lines.append("end-filtered")
    return "\n".join(lines)


def parse_filtered(lines):
    """Inverse of render_filtered, read from a text.Lines cursor."""
    head = lines.header("filtered", size=3)
    p_min, p_max = head.ints(head.words[1:], f"bad filtered header {head.text!r}")
    ambient = parse_complex(lines)
    field = ambient.field
    layers = {p: {} for p in range(p_min, p_max + 1)}
    for line in lines.body("end-filtered", "filtered block not closed"):
        if line.words[0] != "layer":
            raise line.unexpected()
        bad = f"bad layer line {line.text!r}"
        kind = " ".join(line.words[3:])
        if len(line.words) < 3 or kind not in ("", "full", "zero"):
            raise line.error(bad)
        p, n = line.ints(line.words[1:3], bad)
        if p < p_min or p > p_max:
            raise line.error(f"layer index {p} outside the window")
        if kind == "full":
            layers[p][n] = Subspace.full(field, ambient.dim(n))
        elif kind == "zero":
            layers[p][n] = Subspace.zero(field, ambient.dim(n))
        else:
            m = parse_matrix_machine(lines)
            if m.rows != ambient.dim(n):
                raise line.error(f"layer ({p}, {n}) has the wrong height")
            layers[p][n] = Subspace.spanned_by(m)
    return head.build((NotNested, ValueError, MixedFields), FilteredComplex, ambient, layers)
