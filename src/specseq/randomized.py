"""Random bounded complexes and filtrations for property tests and sweeps.

Instances are built so the required structure holds by construction: each
differential column is a random combination of the kernel of the previous
differential, intersected with the filtration layer of the column's basis
vector, which forces both d o d = 0 and closure of every layer.
"""

from .complexes import ChainComplex
from .filtration import from_basis_levels
from .linalg import Matrix, Subspace, _add_multiple, intersect, kernel


def _random_vector_in(field, rng, sub):
    # not reduced mod p: callers build a Matrix from it, which normalizes
    out = {}
    for col in sub.basis_columns:
        c = field.random_element(rng).value
        if c:
            _add_multiple(out, c, col)
    return out


def random_chain_complex(field, rng, top_degree=2, max_dim=4):
    dims = {n: rng.randint(0, max_dim) for n in range(top_degree + 1)}
    if not any(dims.values()):
        dims[0] = 1
    labels = {n: tuple((n, k) for k in range(d)) for n, d in dims.items() if d}
    diffs = {}
    ker = Subspace.full(field, dims.get(0, 0))
    for n in range(1, top_degree + 1):
        cols = [_random_vector_in(field, rng, ker) for _ in range(dims[n])]
        m = Matrix.from_column_dicts(field, dims[n - 1], cols)
        if not m.is_zero:
            diffs[n] = m
        ker = kernel(m)
    return ChainComplex(field, labels, diffs)


def random_filtered_complex(field, rng, top_degree=3, max_dim=6, max_width=4):
    """A filtered complex on a leveled basis, returned with its level table."""
    width = rng.randint(1, max_width)
    dims = {n: rng.randint(0, max_dim) for n in range(top_degree + 1)}
    if not any(dims.values()):
        dims[0] = 1
    levels = {
        n: [rng.randint(0, width - 1) for _ in range(d)]
        for n, d in dims.items()
        if d
    }
    labels = {n: tuple((n, k) for k in range(d)) for n, d in dims.items() if d}
    diffs = {}
    ker = Subspace.full(field, dims.get(0, 0))
    prev_levels = levels.get(0, [])
    for n in range(1, top_degree + 1):
        cols = []
        for k in range(dims[n]):
            allowed = Subspace.coordinate(
                field,
                dims[n - 1],
                [i for i, lv in enumerate(prev_levels) if lv <= levels[n][k]],
            )
            cols.append(_random_vector_in(field, rng, intersect(ker, allowed)))
        m = Matrix.from_column_dicts(field, dims[n - 1], cols)
        if not m.is_zero:
            diffs[n] = m
        ker = kernel(m)
        prev_levels = levels.get(n, [])
    ambient = ChainComplex(field, labels, diffs)
    return from_basis_levels(ambient, levels), levels
