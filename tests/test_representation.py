"""Every scalar the library stores is a raw field value.

Over F_p that is an int in [1, p) (stored scalars are never zero); over QQ
an int, or a Fraction that is not integral.  A float (say from 1 / f on an
int pivot), an integral Fraction, a residue left unreduced, or a
FieldElement anywhere inside a matrix, a subspace basis, a quotient
presentation or a coordinate list fails these checks.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from specseq import cli
from specseq.fields import parse_field_token
from specseq.randomized import random_filtered_complex
from specseq.spectral import SpectralSequence

SCENARIOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))


def is_raw(field, v):
    p = field.characteristic
    if p:
        return type(v) is int and 0 <= v < p
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def column_values(columns):
    return [v for col in columns for v in col.values()]


def representation_faults(ss):
    """(where, value) for every stored scalar that is not a nonzero raw value."""
    fc = ss.source
    amb = fc.ambient
    field = amb.field
    stored = []
    for n in amb.degrees():
        stored.append((f"d{n}", list(amb.diff(n).entries.values())))
        for p in fc.p_range:
            stored.append((f"layer {p} {n}", column_values(fc.layer(p, n).basis_columns)))
    coordinates = []
    for r in range(1, ss.r_star + 1):
        for (p, q), pres in ss.page(r).entries.items():
            where = f"E{r}({p},{q})"
            stored.append((where + " reps", column_values(pres.rep_columns)))
            stored.append((where + " relations", column_values(pres.relations.basis_columns)))
            stored.append((where + " space", column_values(pres.space.basis_columns)))
            stored.append((f"Z{r}({p},{q})", column_values(ss.cycles(r, p, q).basis_columns)))
            for rep in pres.rep_columns:
                coordinates.append((where + " coordinates", pres.coordinates(rep)))
        for pos, m in ss.page_map(r).matrices.items():
            stored.append((f"d{r}{pos}", list(m.entries.values())))
    faults = [(where, v) for where, vals in stored for v in vals if not (is_raw(field, v) and v)]
    faults += [(where, v) for where, vals in coordinates for v in vals if not is_raw(field, v)]
    return faults


@pytest.mark.parametrize("token", [None, "QQ", "F2147483647"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda path: path.stem)
def test_bundled_scenarios_store_raw_scalars(scenario, token):
    parsed = cli.parse_scenario(scenario.read_text())
    fc = cli.build_filtration(parsed, parse_field_token(token) if token else parsed.field)
    ss = SpectralSequence(fc)
    assert ss.limit_comparison().ok
    assert representation_faults(ss) == []


@pytest.mark.parametrize("token", ["QQ", "F2", "F101", "F2147483647"])
def test_random_filtrations_store_raw_scalars(token):
    field = parse_field_token(token)
    rng = random.Random(f"raw:{token}")
    for _ in range(3):
        fc, _ = random_filtered_complex(field, rng)
        ss = SpectralSequence(fc)
        assert ss.limit_comparison().ok
        assert representation_faults(ss) == []
