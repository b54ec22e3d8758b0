"""Fuzz the command line over mutated bundled scenarios and over scenarios
grown from the grammar.

However malformed a scenario file is, `specseq.cli.main` must return 0, 1
or 2 and raise nothing: exit 2 with a parse, build or read error on stderr,
exit 1 only for a failed comparison or check.  Mutants come from deleting,
duplicating, swapping or truncating lines and deleting tokens; none invents
a number, so none asks for more work than the scenario it came from.  Grown
scenarios follow the skeleton of each build kind and of the queries, with
random tokens in every slot; their only numbers are -2 ... 3, so none asks
for large work either.  Flat streams drop the skeleton: lines of the
grammar's keywords, numbers -2 ... 3 and junk tokens in any order.
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import cli

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
MUTATIONS = ("delete", "duplicate", "swap", "truncate", "delete-token")
TOKENS = (
    *("field", "build", "end-build", "queries", "end-queries", "non-reduced"),
    *("graded", "vars", "relation", "length", "factor", "top-bound"),
    *("simplicial", "facet", "end-simplicial", "complex", "term", ":", "diff", "end"),
    *("end-complex", "filtered", "layer", "full", "zero", "end-filtered"),
    *("truncation", "tensor", "tensor-mirrored", "hom"),
    *("page", "differential", "image-length", "infinity", "compare"),
    *("QQ", "F2", "F101", "-2", "-1", "0", "1", "2", "3"),
    *("x", "y", "x^2", "x*y", "1/2", "F4", "a", "#", "+", "end-", "buildx"),
)


@st.composite
def mutants(draw):
    lines = draw(st.sampled_from(SCENARIOS)).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation == "delete":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif mutation == "truncate":
            # the file ends inside line i
            lines[i:] = [lines[i][: draw(st.integers(0, len(lines[i])))]]
        else:
            words = lines[i].split()
            if words:
                del words[draw(st.integers(0, len(words) - 1))]
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def grown(rng):
    """A scenario that follows the skeleton of its build kind and of the
    queries, with random tokens in the slots and at times a stray one."""
    own = rng.choice(("QQ", "F2", "F101"))

    def pick(*options):
        return lambda: rng.choice(options)

    # each slot mostly takes a token that parses there, at times one that does not
    small = pick("-2", "-1", "0", "1", "2", "3")
    size = pick("0", "1", "1", "2", "2", "3", "3", "-1")
    index = pick("0", "0", "1", "1", "2")
    scalar = pick("-2", "-1", "0", "1", "2", "3", "1/2", "a")
    field = pick(*[own] * 28, "QQ", "F4")
    page = pick("1", "1", "1", "2", "2", "2", "3", "3", "0", "-2")
    labels = pick("a b", "a", "b", "b c", "a b c", "a c", "c", "a a")
    poly = pick("x^2", "x*y", "y^2", "x^2 + x*y", "x + y", "2*x^2", "a")
    stray = pick("-2", "3", "a", ":", "x^2", "QQ", "F4", "1/2", "full", "zero", "end")

    def fill(*slots):
        words = [s if isinstance(s, str) else s() for s in slots]
        if rng.random() < 0.03:
            words.insert(rng.randint(0, len(words)), stray())
        return " ".join(words)

    def repeat(block, most=3):
        return [line for _ in range(rng.randint(0, most)) for line in block()]

    def matrix():
        entries = repeat(lambda: [fill(index, index, scalar)])
        return [fill(size, size, field), *entries, "end"]

    def complex_block():
        terms = repeat(lambda: [fill("term", small, ":", labels)])
        diffs = repeat(lambda: [fill("diff", small), *matrix()], 2)
        return [fill("complex", field, small, small), *terms, *diffs, "end-complex"]

    def layer():
        kind = rng.choice(("full", "zero", ""))
        return [fill("layer", small, small, kind), *([] if kind else matrix())]

    def filtered():
        layers = repeat(layer, 4)
        return [fill("filtered", small, small), *complex_block(), *layers, "end-filtered"]

    def simplicial():
        facets = repeat(lambda: [fill("facet", labels)])
        return [fill("simplicial", labels), *facets, "end-simplicial"]

    def graded():
        lines = [fill("vars", "x", pick("y", "y", "a", "x"))]
        lines += repeat(lambda: [fill("relation", poly)], 4)
        lines += [fill("length", size), fill("factor", pick("0", "1", "0", "1", "2"))]
        lines += [fill("top-bound", small)]
        rng.shuffle(lines)
        return lines

    builds = {
        "graded": graded,
        "simplicial": lambda: repeat(simplicial),
        "filtered": filtered,
        "truncation": complex_block,
        "tensor": lambda: complex_block() + filtered(),
        "tensor-mirrored": lambda: filtered() + complex_block(),
        "hom": lambda: complex_block() + filtered(),
    }
    queries = (
        lambda: fill("page", page),
        lambda: fill("differential", page, small, small),
        lambda: fill("image-length", page, small, small),
        lambda: fill("infinity"),
        lambda: fill("compare"),
    )
    kind = rng.choice(sorted(builds))
    lines = [fill("field", field), fill("build", kind), *builds[kind](), "end-build"]
    lines += ["queries", *repeat(lambda: [rng.choice(queries)()], 4), "end-queries"]
    return "\n".join(lines) + "\n"


def flat(rng):
    """Lines of one to three tokens drawn from TOKENS.  Most files set them
    inside a build section of a random kind, so that they reach the kind's
    block readers, followed by queries that are at times flat as well.  At
    most two names follow `vars`, so no graded build is larger than the
    grown ones."""

    def stream(most):
        return [
            " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, most))
        ]

    if rng.random() < 0.2:
        return "\n".join(stream(40)) + "\n"
    queries = stream(4) if rng.random() < 0.3 else ["page 1", "infinity", "compare"]
    lines = [
        f"field {rng.choice(('QQ', 'F2', 'F101'))}",
        f"build {rng.choice(sorted(cli.BUILDS))}",
        *stream(30),
        "end-build",
        "queries",
        *queries,
        "end-queries",
    ]
    return "\n".join(lines) + "\n"


def assert_documented_exit(text, flags):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.scn"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path), *flags])
    message = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in message
    if code == 2:
        assert message.startswith(("parse error:", "build error:", "cannot read scenario:"))
    if code == 1:
        assert message.startswith(("failure:", "check failed:"))


FLAGS = st.sampled_from(([], ["--machine"], ["--check"]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=mutants(), flags=FLAGS)
def test_mutated_scenarios_end_in_a_documented_exit(text, flags):
    assert_documented_exit(text, flags)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flags=FLAGS)
def test_grown_scenarios_end_in_a_documented_exit(seed, flags):
    assert_documented_exit(grown(random.Random(seed)), flags)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flags=FLAGS)
def test_flat_token_streams_end_in_a_documented_exit(seed, flags):
    assert_documented_exit(flat(random.Random(seed)), flags)
