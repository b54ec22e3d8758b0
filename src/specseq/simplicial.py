"""Simplicial complexes on ordered vertex sets and their reduced chains.

Vertices carry the order in which they are listed; faces are stored as
tuples in that order.  The empty face is always present, so the reduced
chain complex has a degree -1 term and the boundary of a vertex is the
empty face.
"""

from itertools import combinations

from .complexes import ChainComplex, ChainMap
from .errors import NotASubcomplex
from .linalg import Matrix


class SimplicialComplex:
    __slots__ = ("vertices", "_index", "_faces")

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex")
        self._index = {v: k for k, v in enumerate(self.vertices)}
        face_set = {()}
        for facet in facets:
            for v in facet:
                if v not in self._index:
                    raise ValueError(f"facet uses unknown vertex {v!r}")
            fv = tuple(sorted(set(facet), key=self._index.__getitem__))
            for size in range(1, len(fv) + 1):
                face_set.update(combinations(fv, size))
        by_dim = {}
        for face in face_set:
            by_dim.setdefault(len(face) - 1, []).append(face)
        self._faces = {
            k: tuple(sorted(faces, key=lambda f: tuple(self._index[v] for v in f)))
            for k, faces in by_dim.items()
        }

    @property
    def dim(self):
        return max(self._faces)

    def faces(self, k):
        return self._faces.get(k, ())

    def all_faces(self):
        out = set()
        for faces in self._faces.values():
            out.update(faces)
        return out

    def has_face(self, face):
        return tuple(face) in self._faces.get(len(face) - 1, ())

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self._faces == other._faces
        )

    def __repr__(self):
        counts = " ".join(f"{k}:{len(v)}" for k, v in sorted(self._faces.items()))
        return f"<SimplicialComplex [{counts}]>"


def _boundary_matrix(s, field, k):
    """Boundary from k-faces to (k-1)-faces, alternating vertex deletion."""
    rows = {f: i for i, f in enumerate(s.faces(k - 1))}
    columns = [
        {rows[face[:l] + face[l + 1 :]]: -1 if l % 2 else 1 for l in range(len(face))}
        for face in s.faces(k)
    ]
    return Matrix.from_column_dicts(field, len(rows), columns)


def reduced_chain_complex(s, field, reduced=True):
    """Chain complex of s; with reduced=True the empty face spans degree -1."""
    lo = -1 if reduced else 0
    labels = {k: s.faces(k) for k in range(lo, s.dim + 1) if s.faces(k)}
    diffs = {}
    for k in range(lo + 1, s.dim + 1):
        if s.faces(k):
            diffs[k] = _boundary_matrix(s, field, k)
    return ChainComplex(field, labels, diffs, validate=False)


def _face_positions(sub, sup):
    """{k: index in sup.faces(k) of each face in sub.faces(k)}; NotASubcomplex
    unless sub's vertex order is sup's and every face of sub is in sup."""
    order = {v: k for k, v in enumerate(sup.vertices)}
    positions = [order.get(v) for v in sub.vertices]
    if None in positions or positions != sorted(positions):
        raise NotASubcomplex("vertex orders are incompatible")
    out = {}
    for k in range(-1, sub.dim + 1):
        index = {f: i for i, f in enumerate(sup.faces(k))}
        out[k] = []
        for face in sub.faces(k):
            if face not in index:
                raise NotASubcomplex(f"face {face!r} is missing from the host complex")
            out[k].append(index[face])
    return out


def inclusion_map(sub, sup, field, reduced=True):
    """Basis-to-basis chain map of a subcomplex into its host."""
    positions = _face_positions(sub, sup)
    src = reduced_chain_complex(sub, field, reduced=reduced)
    tgt = reduced_chain_complex(sup, field, reduced=reduced)
    comps = {
        k: Matrix.from_column_dicts(field, len(sup.faces(k)), [{i: 1} for i in rows])
        for k, rows in positions.items()
        if k >= (-1 if reduced else 0)
    }
    return ChainMap(src, tgt, comps, validate=False)


# ---------------------------------------------------------------------------
# plain-text format


def render_simplicial(s):
    lines = ["simplicial " + " ".join(str(v) for v in s.vertices)]
    facets = _facets(s)
    for f in facets:
        lines.append("facet " + " ".join(str(v) for v in f))
    lines.append("end-simplicial")
    return "\n".join(lines)


def _facets(s):
    faces = s.all_faces() - {()}
    out = []
    for f in sorted(faces, key=lambda f: (-len(f), f)):
        if not any(set(f) < set(g) for g in out):
            out.append(f)
    return out


def parse_simplicial(lines):
    """Inverse of render_simplicial, read from a text.Lines cursor."""
    head = lines.header("simplicial")
    facets = []
    for line in lines.body("end-simplicial", "simplicial block not closed"):
        if line.words[0] != "facet":
            raise line.unexpected()
        facets.append(line.words[1:])
    return head.build(ValueError, SimplicialComplex, head.words[1:], facets)
