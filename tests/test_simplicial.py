import pytest

from specseq.complexes import homology_rank
from specseq.errors import NotASubcomplex, ParseError
from specseq.fields import QQ, PrimeField
from specseq.simplicial import (
    SimplicialComplex,
    inclusion_map,
    parse_simplicial,
    reduced_chain_complex,
    render_simplicial,
)
from specseq.text import Lines

F2 = PrimeField(2)


def test_face_closure():
    s = SimplicialComplex(["a", "b", "c"], [["a", "b", "c"]])
    assert s.dim == 2
    # empty face, three vertices, three edges, one triangle
    assert len(s.all_faces()) == 8
    assert s.has_face(("a", "c"))
    assert not s.has_face(("a", "d"))


def test_vertex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(["a", "a"], [])
    with pytest.raises(ValueError):
        SimplicialComplex(["a"], [["a", "b"]])


def test_boundary_of_edge():
    s = SimplicialComplex(["a", "b"], [["a", "b"]])
    c = reduced_chain_complex(s, QQ)
    d1 = c.diff(1)
    assert d1.columns[0] == {0: QQ.element(-1), 1: QQ.element(1)}
    # reduced complex keeps the empty face in degree -1
    assert c.dim(-1) == 1
    assert c.diff(0).columns[0] == {0: QQ.element(1)}


def test_full_triangle_is_acyclic():
    s = SimplicialComplex(["x", "y", "z"], [["x", "y", "z"]])
    c = reduced_chain_complex(s, QQ)
    for n in range(-1, 3):
        assert homology_rank(c, n) == 0


def test_hollow_triangle_circle():
    s = SimplicialComplex(["x", "y", "z"], [["x", "y"], ["x", "z"], ["y", "z"]])
    c = reduced_chain_complex(s, QQ)
    assert homology_rank(c, 0) == 0
    assert homology_rank(c, 1) == 1


def test_two_points():
    s = SimplicialComplex(["x", "y"], [["x"], ["y"]])
    red = reduced_chain_complex(s, QQ)
    assert homology_rank(red, 0) == 1
    plain = reduced_chain_complex(s, QQ, reduced=False)
    assert homology_rank(plain, 0) == 2
    assert plain.dim(-1) == 0


def test_sphere_boundary_of_tetrahedron():
    verts = ["a", "b", "c", "d"]
    facets = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    s = SimplicialComplex(verts, facets)
    for field in (QQ, F2):
        c = reduced_chain_complex(s, field)
        assert homology_rank(c, 2) == 1
        assert homology_rank(c, 1) == 0
        assert homology_rank(c, 0) == 0


def test_inclusion_map():
    big = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    small = SimplicialComplex(["x", "y", "w"], [["x", "y"], ["w"]])
    f = inclusion_map(small, big, QQ)
    src = f.source
    assert src.dim(0) == 3
    # inclusion components are unit columns
    comp = f.component(0)
    assert all(len(c) == 1 for c in comp.column_dicts())


def test_inclusion_rejects_non_subcomplex():
    big = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    stray = SimplicialComplex(["x", "w"], [["x", "w"]])
    with pytest.raises(NotASubcomplex):
        inclusion_map(stray, big, QQ)
    # same faces but listed against an incompatible vertex order
    reordered = SimplicialComplex(["y", "x"], [["x"], ["y"]])
    with pytest.raises(NotASubcomplex):
        inclusion_map(reordered, big, QQ)


def test_render_parse_round_trip():
    s = SimplicialComplex(["x", "y", "z", "w"], [["x", "y", "z"], ["z", "w"]])
    text = render_simplicial(s)
    lines = Lines(text)
    parsed = parse_simplicial(lines)
    assert lines.done
    assert parsed.vertices == s.vertices
    assert parsed.all_faces() == s.all_faces()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_simplicial(Lines("simplicial a b\nfacet a b"))
    with pytest.raises(ParseError):
        parse_simplicial(Lines("wrong a b\nend-simplicial"))
