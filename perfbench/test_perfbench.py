"""Tests of the benchmark's oracle, output parser and metric names.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from oracle import Barcode, Cell, page_mismatches, weighted_table  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from specseq import QQ, PrimeField, SpectralSequence, random_filtered_complex  # noqa: E402


def facet_barcode(complexes):
    """Oracle input from nested complexes given by facets, largest first."""
    def faces(facets):
        out = {()}
        for facet in facets:
            for size in range(1, len(facet) + 1):
                out.update(combinations(facet, size))
        return out

    nested = [faces(c) for c in complexes]
    ordered = sorted(nested[0], key=lambda f: (len(f), f))
    index = {f: k for k, f in enumerate(ordered)}
    last = len(complexes) - 1
    cells, boundary = [], []
    for f in ordered:
        deepest = max(k for k, s in enumerate(nested) if f in s)
        cells.append(Cell(len(f) - 1, last - deepest))
        boundary.append({index[f[:l] + f[l + 1:]]: (-1) ** l for l in range(len(f))})
    return Barcode(cells, boundary)


README_EXAMPLE = [
    [("x", "y", "z"), ("z", "w")],
    [("x", "y"), ("w",)],
    [("x",), ("w",)],
]


def test_readme_example_page_two():
    bc = facet_barcode(README_EXAMPLE)
    assert bc.page_dims(2) == {(0, 0): 1, (2, -1): 1}
    assert bc.page_dims(bc.r_star) == {}
    assert dict(bc.image_rank(2, 2, -1)) == {None: 1}


def test_changed_dimension_is_rejected():
    bc = facet_barcode(README_EXAMPLE)
    answer = dict(bc.page_dims(2))
    assert page_mismatches("E2", answer, bc.page_dims(2)) == []
    answer[(0, 0)] += 1
    assert page_mismatches("E2", answer, bc.page_dims(2))
    del answer[(0, 0)]
    assert page_mismatches("E2", answer, bc.page_dims(2))


def test_cell_outside_its_filtration_step_is_refused():
    cells = [Cell(0, 1), Cell(1, 0)]
    with pytest.raises(ValueError):
        Barcode(cells, [{}, {0: 1}])


@pytest.mark.parametrize("field", [QQ, PrimeField(101), PrimeField(2)], ids=str)
def test_oracle_agrees_with_engine_on_random_filtrations(field):
    rng = random.Random(11)
    for _ in range(12):
        fc, levels = random_filtered_complex(field, rng)
        modulus = None if field is QQ else field.characteristic
        bc = workloads._complex_barcode(fc.ambient, levels, None, modulus)
        ss = SpectralSequence(fc)
        assert bc.r_star == ss.r_star
        for r in range(0, ss.r_star + 1):
            assert ss.page(r).dims() == bc.page_dims(r)


def test_skeleton_closed_form():
    bc = workloads.skeleton_barcode([list(range(7)), [0, 2, 4, 6], [2, 4]])
    totals = {}
    for (p, q), d in bc.page_dims(bc.r_star).items():
        totals[p + q] = totals.get(p + q, 0) + d
    assert totals == {2: 20}


def test_bundled_graded_scenario_passes_the_checks():
    scenario = HERE.parent / "scenarios" / "graded_cancellation"
    text = (scenario.with_suffix(".expected")).read_text()
    spec = workloads.GradedSpec("bundled", "square-zero", 2, 3, 0, ["x^2", "x*y", "y^2"])
    graded = workloads.GradedCli()
    expected = graded.expected(spec)
    assert workloads.weighted_table(expected[0].page(1)) == workloads.square_zero_e1(3)
    # the bundled file asks two image-length queries; check the first pair
    lines = text.splitlines()
    one_image = "\n".join(line for line in lines if not line.startswith("image-length 3 "))
    assert graded.check(spec, (0, one_image), expected) == []
    broken = one_image.replace("8(5:8)", "7(5:7)", 1)
    assert graded.check(spec, (0, broken), expected)


def test_scenarios_in_disguise_give_the_same_algebra():
    rng = random.Random(3)
    for kind, nvars in (("square-zero", 2), ("complete-intersection", 2), ("square-zero", 3)):
        relations = workloads.graded_relations(kind, nvars, rng)
        alg = workloads.graded.build_quotient_algebra(
            workloads.F101, nvars, relations, names=workloads.VARIABLES[:nvars]
        )
        want = (1, nvars) if kind == "square-zero" else (1, 2, 1)
        assert alg.dims() == want


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = tracing.layer_metrics([(tracing.Tracer(), 1.0)])
    names = list(per_layer) + ["trace.overhead_s"]
    assert names == [m["name"] for m in spec["per_layer"]]
    assert [m["unit"] for m in spec["per_layer"][:-1]] == [u for _, u in per_layer.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "round_s", "instance_median_s", "first_page_median_s", "peak_rss_mb"
    ]


def test_steal_is_taken_out_of_wall_time():
    assert run.steal_free(0.7, 0.0) == 1.0
    # one thread busy for 1.0 s of CPU, 0.25 s stolen from its vCPU: 1.25 s
    # of wall time, of which 1.0 s remains
    assert 1.25 * run.steal_free(1.0, 0.25) == pytest.approx(1.0)
    # two threads side by side for 1.0 s each, each vCPU losing 0.25 s: the
    # overlap stays, 1.0 s of wall time remains
    assert 1.25 * run.steal_free(2.0, 0.5) == pytest.approx(1.0)


def test_steadiness_judges_changes_both_ways():
    first = [1.0, 1.0, 1.0, 1.0]
    assert steady.judge("round_s", first, [1.1] * 4, 0.25)[-1]
    assert not steady.judge("round_s", first, [1.3] * 4, 0.25)[-1]
    assert not steady.judge("round_s", first, [0.7] * 4, 0.25)[-1]
    # setup_s is judged by its medians only
    assert steady.judge("setup_s", [0.5, 1.0, 1.5, 1.0], first, 0.25)[-1]
    assert not steady.judge("round_s", [0.5, 1.0, 1.5, 1.0], first, 0.25)[-1]
