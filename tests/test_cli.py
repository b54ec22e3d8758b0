import io
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from specseq import cli
from specseq.errors import NotWellDefined, ParseError
from specseq.spectral import LimitReport

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run_text(name, **kwargs):
    text = (SCENARIOS / name).read_text()
    out = io.StringIO()
    code = cli.run(text, out=out, **kwargs)
    return code, out.getvalue()


def test_simplicial_scenario_golden():
    code, got = run_text("simplicial_filtration.scn")
    assert code == 0
    expected = (SCENARIOS / "simplicial_filtration.expected").read_text()
    assert got == expected


def test_graded_scenario_golden():
    code, got = run_text("graded_cancellation.scn")
    assert code == 0
    expected = (SCENARIOS / "graded_cancellation.expected").read_text()
    assert got == expected


def test_output_is_deterministic_across_threads(monkeypatch):
    # page queries run on the calling thread: `threads` is accepted and
    # ignored, and no query may start a thread
    def refuse(self):
        raise AssertionError("a query started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    base = run_text("graded_cancellation.scn")
    assert base[0] == 0
    assert run_text("graded_cancellation.scn", threads=4) == base


def test_machine_page_round_trip():
    code, got = run_text("graded_cancellation.scn", machine=True)
    assert code == 0
    block = "\n".join(
        line
        for line in got.splitlines()
        if line.startswith("1 ") and line.split()[-1] not in ("ok", "FAIL")
    )
    parsed = cli.parse_machine_page(block)
    assert parsed[(1, 1, 1)] == (6, {3: 6})
    assert parsed[(1, 3, 0)] == (8, {3: 8})
    assert len(parsed) == 12


def test_machine_differential_uses_matrix_blocks():
    code, got = run_text("simplicial_filtration.scn", machine=True)
    assert code == 0
    assert "differential 2 2 -1 : 1 x 1" in got
    assert "1 1 QQ" in got


def test_parse_machine_page_rejects_garbage():
    with pytest.raises(ParseError):
        cli.parse_machine_page("1 2 3")
    with pytest.raises(ParseError):
        cli.parse_machine_page("1 2 3 4 5")
    with pytest.raises(ParseError):
        cli.parse_machine_page("1 2 3 2 0:1")


def test_check_flag_prints_marker(monkeypatch):
    # building validates the filtration; --check does not validate it again
    calls = []
    real = cli.FilteredComplex.validate

    def counted(fc):
        calls.append(fc)
        real(fc)

    monkeypatch.setattr(cli.FilteredComplex, "validate", counted)
    code, got = run_text("simplicial_filtration.scn", check=True)
    assert code == 0
    assert got.splitlines()[0] == "check ok"
    assert len(calls) == 1


def test_field_override():
    text = (SCENARIOS / "simplicial_filtration.scn").read_text()
    out = io.StringIO()
    code = cli.run(text, field_override="F7", out=out)
    assert code == 0
    # same entries over a small prime field
    assert "q=-1" in out.getvalue()


def test_scenario_parse_errors():
    with pytest.raises(ParseError):
        cli.parse_scenario("field QQ\nfield QQ\n")
    with pytest.raises(ParseError):
        cli.parse_scenario("unknown line\n")
    with pytest.raises(ParseError):
        cli.parse_scenario("build nonsense\nend-build\n")
    with pytest.raises(ParseError):
        cli.parse_scenario("build simplicial\n")  # never closed
    sc = "build simplicial\nend-build\nqueries\npage -1\nend-queries\n"
    with pytest.raises(ParseError):
        cli.parse_scenario(sc)
    sc = "build simplicial\nend-build\nqueries\ndifferential 0 1 1\nend-queries\n"
    with pytest.raises(ParseError):
        cli.parse_scenario(sc)
    sc = "build simplicial\nend-build\nqueries\nwat\nend-queries\n"
    with pytest.raises(ParseError):
        cli.parse_scenario(sc)


def test_missing_field_for_simplicial_is_a_parse_error():
    text = "build simplicial\nsimplicial a\nfacet a\nend-simplicial\nend-build\nqueries\npage 1\nend-queries\n"
    with pytest.raises(ParseError):
        cli.run(text, out=io.StringIO())


def test_field_mismatch_rejected():
    text = (
        "field F7\n"
        "build truncation\n"
        "complex QQ 0 0\n"
        "term 0 : a\n"
        "end-complex\n"
        "end-build\n"
        "queries\npage 1\nend-queries\n"
    )
    with pytest.raises(ParseError):
        cli.run(text, out=io.StringIO())


def test_truncation_build_runs():
    text = (
        "build truncation\n"
        "complex QQ 0 1\n"
        "term 0 : a b\n"
        "term 1 : e\n"
        "diff 1\n"
        "2 1 QQ\n"
        "0 0 -1\n"
        "1 0 1\n"
        "end\n"
        "end-complex\n"
        "end-build\n"
        "queries\npage 1\ninfinity\ncompare\nend-queries\n"
    )
    out = io.StringIO()
    assert cli.run(text, out=out) == 0
    assert "compare ok" in out.getvalue()


def test_build_error_exits_two():
    # facets must be faces of the listed vertex set
    text = (
        "field QQ\n"
        "build simplicial\n"
        "simplicial a\n"
        "facet a b\n"
        "end-simplicial\n"
        "end-build\n"
        "queries\npage 1\nend-queries\n"
    )
    with pytest.raises(ParseError):
        cli.run(text, out=io.StringIO())


ONE_TERM_COMPLEX = "complex QQ 0 0\nterm 0 : a\nend-complex\n"


@pytest.mark.parametrize(
    "body",
    [
        "build tensor\n" + ONE_TERM_COMPLEX,
        "build filtered\n",
        "build filtered\nfiltered 0 0\n" + ONE_TERM_COMPLEX + "layer 0\nend-filtered\n",
        "build truncation\n",
        "build filtered\nfiltered a 0\n" + ONE_TERM_COMPLEX + "end-filtered\n",
        "build filtered\nfiltered 0 0\n" + ONE_TERM_COMPLEX + "layer x 0 full\nend-filtered\n",
        "build truncation\ncomplex QQ 0 0\nterm x : a\nend-complex\n",
        "build truncation\ncomplex QQ 0 1\nterm 0 : a\nterm 1 : b\ndiff z\n"
        "1 1 QQ\nend\nend-complex\n",
    ],
    ids=[
        "tensor-without-filtered",
        "empty-filtered",
        "layer-without-kind",
        "empty-truncation",
        "non-integer-filtered-window",
        "non-integer-layer-index",
        "non-integer-term-degree",
        "non-integer-diff-degree",
    ],
)
def test_truncated_blocks_are_parse_errors(body, tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(body + "end-build\nqueries\npage 1\nend-queries\n")
    assert cli.main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line ")
    assert "Traceback" not in err


def test_non_nested_simplicial_build_exits_two(capsys):
    # neither complex contains the other
    text = (
        "field QQ\n"
        "build simplicial\n"
        "simplicial a b\n"
        "facet a b\n"
        "end-simplicial\n"
        "simplicial a b\n"
        "facet a\n"
        "end-simplicial\n"
        "simplicial a b\n"
        "facet b\n"
        "end-simplicial\n"
        "end-build\n"
        "queries\npage 1\nend-queries\n"
    )
    code = cli.run(text, out=io.StringIO())
    assert code == 2


def test_comparison_failure_exits_one(monkeypatch):
    real = cli.SpectralSequence

    class Lying(real):
        def limit_comparison(self, strict=True):
            return LimitReport([(0, 0, 1, 2, False)])

    monkeypatch.setattr(cli, "SpectralSequence", Lying)
    code, got = run_text("simplicial_filtration.scn")
    assert code == 1
    assert "compare FAIL" in got


def test_not_well_defined_exits_one(monkeypatch):
    real = cli.SpectralSequence

    class Broken(real):
        def differential(self, r, p, q):
            raise NotWellDefined("forced")

    monkeypatch.setattr(cli, "SpectralSequence", Broken)
    code, _ = run_text("simplicial_filtration.scn")
    assert code == 1


def test_main_subprocess_paths():
    ok = subprocess.run(
        [sys.executable, "-m", "specseq.cli", str(SCENARIOS / "simplicial_filtration.scn")],
        capture_output=True,
    )
    assert ok.returncode == 0
    missing = subprocess.run(
        [sys.executable, "-m", "specseq.cli", "does_not_exist.scn"],
        capture_output=True,
    )
    assert missing.returncode == 2
    no_threads_option = subprocess.run(
        [
            sys.executable,
            "-m",
            "specseq.cli",
            str(SCENARIOS / "simplicial_filtration.scn"),
            "--threads",
            "2",
        ],
        capture_output=True,
    )
    assert no_threads_option.returncode == 2
    assert b"unrecognized arguments" in no_threads_option.stderr
    # the engine is pure Python; a stray numpy import would show up here
    no_numpy = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "from specseq import cli\n"
            "code = cli.main([sys.argv[1], '--field', 'F101'])\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.exit(code)\n",
            str(SCENARIOS / "graded_cancellation.scn"),
        ],
        capture_output=True,
    )
    assert no_numpy.returncode == 0, no_numpy.stderr.decode()


TRUNCATION = (
    "build truncation\n"
    "complex QQ 0 1\n"
    "term 0 : a\n"
    "term 1 : b\n"
    "diff 1\n"
    "1 1 QQ\n"
    "0 0 1\n"
    "end\n"
    "end-complex\n"
    "end-build\n"
)
FILTERED = (
    "build filtered\n"
    "filtered 0 1\n"
    "complex QQ 0 0\n"
    "term 0 : a\n"
    "end-complex\n"
    "layer 0 0 zero\n"
    "layer 1 0 full\n"
    "end-filtered\n"
    "end-build\n"
)
SIMPLICIAL = "build simplicial\nsimplicial x y\nfacet x y\nend-simplicial\nend-build\n"
GRADED = "build graded\nvars x\nrelation x^2\nlength 1\nend-build\n"
QUERIES = "\nqueries\npage 1\nend-queries\n"


def run_main(tmp_path, text, capsys):
    path = tmp_path / "case.scn"
    path.write_text(text)
    code = cli.main([str(path)])
    return code, capsys.readouterr().err


# (build section, its good line, the bad line put in its place, the line an
# error is reported at); comments and blank lines above the build section
# keep section-relative and file line numbers apart, and the scenario's own
# `field QQ` line can be the good line too
@pytest.mark.parametrize(
    "build, good, bad, at",
    [
        (TRUNCATION, "0 0 1", "0 x 1", "0 x 1"),
        (TRUNCATION, "term 1 : b", "term x : b", "term x : b"),
        (TRUNCATION, "diff 1", "diff x", "diff x"),
        (FILTERED, "layer 1 0 full", "layer 5 0 full", "layer 5 0 full"),
        # SimplicialComplex rejects the facet; its block's header is reported
        (SIMPLICIAL, "facet x y", "facet x q", "simplicial x y"),
        (GRADED, "length 1", "length x", "length x"),
        (GRADED + "\nqueries\npage 1\nend-queries\n", "page 1", "page x", "page x"),
        (TRUNCATION, "0 0 1", "0 0 x", "0 0 x"),
        (TRUNCATION, "1 1 QQ", "1 1 F4", "1 1 F4"),
        (TRUNCATION, "complex QQ 0 1", "complex Q 0 1", "complex Q 0 1"),
        (TRUNCATION, "complex QQ 0 1", "complex QQ zz yy", "complex QQ zz yy"),
        (GRADED, "relation x^2", "relation x^2 + z", "relation x^2 + z"),
        (GRADED, "relation x^2", "relation", "relation"),
        (SIMPLICIAL, "build simplicial", *["build simplicial nonreduced"] * 2),
        (TRUNCATION, "build truncation", *["build truncation non-reduced"] * 2),
        (SIMPLICIAL, "field QQ", "field Q", "field Q"),
        (GRADED, "relation x^2", "relation x - x", "relation x - x"),
        (GRADED, "relation x^2", "relation 3", "relation 3"),
        (GRADED, "relation x^2", "relation x^2 + x", "relation x^2 + x"),
    ],
    ids=[
        "matrix-entry",
        "term",
        "diff",
        "layer",
        "facet",
        "graded-directive",
        "query",
        "scalar",
        "matrix-field",
        "complex-field",
        "complex-window",
        "relation",
        "empty-relation",
        "build-option",
        "option-of-another-build",
        "scenario-field",
        "zero-relation",
        "constant-relation",
        "inhomogeneous-relation",
    ],
)
def test_errors_name_the_file_line(build, good, bad, at, tmp_path, capsys):
    text = ("# a scenario with one mistake\n\nfield QQ\n\n" + build).replace(good, bad)
    if "queries" not in build:
        text += QUERIES
    lineno = text.splitlines().index(at) + 1
    code, err = run_main(tmp_path, text, capsys)
    assert code == 2
    assert err.startswith(f"parse error: line {lineno}: ")


@pytest.mark.parametrize(
    "good, bad, message",
    [
        ("vars x", "vars x x", "repeated variable 'x'"),
        ("length 1", "length -1", "length must be nonnegative"),
        ("length 1", "length 1\ntop-bound -1", "top-bound must be nonnegative"),
    ],
    ids=["repeated-variable", "negative-length", "negative-top-bound"],
)
def test_graded_directives_are_refused_at_their_line(good, bad, message, tmp_path, capsys):
    text = ("field QQ\n" + GRADED + QUERIES).replace(good, bad)
    lineno = text.splitlines().index(bad.split("\n")[-1]) + 1
    code, err = run_main(tmp_path, text, capsys)
    assert (code, err) == (2, f"parse error: line {lineno}: {message}\n")


# (scenario, the line an error is reported at, at its last occurrence,
# message): errors of a whole section name its closing line, and a missing
# section the last line of the file
@pytest.mark.parametrize(
    "text, at, message",
    [
        (
            "field QQ\nbuild simplicial\nend-build\n" + QUERIES,
            "end-build",
            "build simplicial lists no complexes",
        ),
        (
            "field QQ\n" + GRADED.replace("vars x\n", "") + QUERIES,
            "end-build",
            "build graded needs a vars line",
        ),
        (
            "field QQ\n" + GRADED.replace("relation x^2\n", "") + QUERIES,
            "end-build",
            "build graded needs at least one relation",
        ),
        (
            "field QQ\n" + GRADED.replace("length 1\n", "") + QUERIES,
            "end-build",
            "build graded needs a length line",
        ),
        (
            "field F7\n" + TRUNCATION + QUERIES,
            "end-build",
            "scenario names field F7 but the block is over QQ",
        ),
        ("field QQ\n" + SIMPLICIAL * 2 + QUERIES, "build simplicial", "more than one build section"),
        ("field QQ\n" + SIMPLICIAL + QUERIES * 2, "queries", "more than one queries section"),
        ("field QQ\n" + SIMPLICIAL, "end-build", "scenario has no queries section"),
        ("field QQ\n" + GRADED.replace("vars x", "vars") + QUERIES, "vars", "vars names no variables"),
    ],
    ids=[
        "no-complexes",
        "no-vars",
        "no-relation",
        "no-length",
        "field-mismatch",
        "two-builds",
        "two-queries",
        "no-queries",
        "empty-vars",
    ],
)
def test_section_errors_name_a_line(text, at, message, tmp_path, capsys):
    lines = text.splitlines()
    lineno = len(lines) - lines[::-1].index(at)
    code, err = run_main(tmp_path, text, capsys)
    assert (code, err) == (2, f"parse error: line {lineno}: {message}\n")


@pytest.mark.parametrize(
    "good, bad",
    [
        ("field QQ", "fields QQ"),
        ("build simplicial", "buildup simplicial"),
        ("facet z w", "facets z w"),
    ],
)
def test_keywords_are_whole_tokens(good, bad, tmp_path, capsys):
    text = (SCENARIOS / "simplicial_filtration.scn").read_text().replace(good, bad)
    lineno = text.splitlines().index(bad) + 1
    code, err = run_main(tmp_path, text, capsys)
    assert code == 2
    assert err.startswith(f"parse error: line {lineno}: unexpected line {bad!r}")


def test_simplicial_build_takes_non_reduced():
    outputs = []
    for header in ("build simplicial", "build simplicial non-reduced"):
        buf = io.StringIO()
        text = "field QQ\n" + SIMPLICIAL.replace("build simplicial", header) + QUERIES
        assert cli.run(text, out=buf) == 0
        outputs.append(buf.getvalue())
    # an edge has no reduced homology and one class in degree 0
    assert outputs[0] == "page 1\n(empty)\n"
    assert outputs[1] != outputs[0]


def test_comments_and_blank_lines_inside_a_matrix_block(tmp_path, capsys):
    text = TRUNCATION.replace("0 0 1\n", "# the only entry\n\n0 0 1\n") + QUERIES
    code, err = run_main(tmp_path, text, capsys)
    assert (code, err) == (0, "")


def test_undecodable_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"\xff" + (SCENARIOS / "simplicial_filtration.scn").read_bytes())
    assert cli.main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("cannot read scenario: ")
