"""Command line front end.

A scenario file names a field, describes one filtered complex, and lists
queries against its spectral sequence.  Output is plain deterministic text:
the same scenario and flags always produce byte-identical bytes on stdout.

Exit status: 0 on success, 1 when a comparison fails or a page map is not
well defined on a successfully built filtration, 2 on unreadable input or
malformed scenarios.
"""

import argparse
import sys
from dataclasses import dataclass

from .complexes import parse_complex
from .errors import NotWellDefined, ParseError, SpecseqError
from .fields import Field, parse_field_token
from .filtration import (
    FilteredComplex,
    from_simplicial,
    hom_filtration,
    parse_filtered,
    tensor_filtration,
    truncation_filtration,
)
from .graded import (
    build_quotient_algebra,
    class_degrees,
    degree_breakdown,
    expand,
    factor_filtration,
    image_degree_breakdown,
    internal_degrees,
    koszul_complex,
    minimal_free_resolution,
    parse_poly,
    relation_degree,
    tensor_complex,
    variable_names,
)
from .linalg import rank, render_matrix_machine
from .simplicial import parse_simplicial
from .spectral import SpectralSequence
from .text import Lines


@dataclass
class Query:
    kind: str
    r: int = 0
    p: int = 0
    q: int = 0


@dataclass
class Scenario:
    field: Field | None
    build_kind: str
    build_opts: tuple
    build_lines: Lines
    queries: list


def parse_scenario(text):
    lines = Lines(text)
    field = None
    build = None
    queries = None
    for line in lines:
        words = line.words
        if words[0] == "field":
            if len(words) != 2:
                raise line.error(f"bad field line {line.text!r}")
            if field is not None:
                raise line.error("field named twice")
            field = line.build(ParseError, parse_field_token, words[1])
        elif words[0] == "build":
            if build is not None:
                raise line.error("more than one build section")
            if len(words) < 2 or words[1] not in BUILDS:
                raise line.error(f"bad build line {line.text!r}")
            for option in words[2:]:
                if option not in BUILDS[words[1]][2]:
                    raise line.error(f"unknown build option {option!r}")
            body = lines.block("end-build", "missing 'end-build'")
            build = (words[1], tuple(words[2:]), body)
        elif line.text == "queries":
            if queries is not None:
                raise line.error("more than one queries section")
            queries = [
                _parse_query(q) for q in lines.body("end-queries", "missing 'end-queries'")
            ]
        else:
            raise line.unexpected()
    if build is None:
        raise ParseError("scenario has no build section", line=lines.end)
    if queries is None:
        raise ParseError("scenario has no queries section", line=lines.end)
    return Scenario(field, *build, queries)


def _parse_query(line):
    kind, args = line.words[0], line.words[1:]
    if kind in ("infinity", "compare"):
        if args:
            raise line.error(f"{kind} takes no arguments")
        return Query(kind)
    if kind == "page":
        if len(args) != 1:
            raise line.error(f"bad page query {line.text!r}")
        (r,) = line.ints(args)
        if r < 0:
            raise line.error("page index must be nonnegative")
        return Query("page", r=r)
    if kind in ("differential", "image-length"):
        if len(args) != 3:
            raise line.error(f"bad {kind} query {line.text!r}")
        r, p, q = line.ints(args)
        if r < 1:
            raise line.error(f"{kind} needs a page index of at least 1")
        return Query(kind, r=r, p=p, q=q)
    raise line.error(f"unknown query {line.text!r}")


def _need_field(field):
    if field is None:
        raise ParseError("no field named in the scenario or on the command line")
    return field


def _simplicial_blocks(lines):
    """The nested simplicial complexes of a simplicial build, largest first."""
    complexes = []
    while not lines.done:
        complexes.append(parse_simplicial(lines))
    if not complexes:
        raise ParseError("build simplicial lists no complexes")
    return complexes


def _graded_directives(lines):
    """The variables, relations and numeric settings of a graded build."""
    names = None
    relations = []
    numbers = {"factor": 0, "top-bound": 64}
    for line in lines:
        head, args = line.words[0], line.words[1:]
        if head == "vars":
            if not args:
                raise line.error("vars names no variables")
            names = line.build(ValueError, variable_names, len(args), args)
        elif head == "relation":
            relations.append(line)
        elif head in ("length", "factor", "top-bound") and len(args) == 1:
            (numbers[head],) = line.ints(args)
            if head == "factor" and numbers[head] not in (0, 1):
                raise line.error("factor must be 0 or 1")
            if numbers[head] < 0:
                raise line.error(f"{head} must be nonnegative")
        else:
            raise line.error(f"bad graded directive {line.text!r}")
    if names is None:
        raise ParseError("build graded needs a vars line")
    if not relations:
        raise ParseError("build graded needs at least one relation")
    if "length" not in numbers:
        raise ParseError("build graded needs a length line")
    return names, relations, numbers


def _build_simplicial(field, opts, complexes):
    reduced = "non-reduced" not in opts
    return from_simplicial(complexes, _need_field(field), reduced=reduced)


def _relation(line, field, names):
    """The polynomial of a relation line; a bad one is reported at the line."""
    poly = line.build(ParseError, parse_poly, field, len(names), " ".join(line.words[1:]), names)
    line.build(ValueError, relation_degree, poly)
    return poly


def _build_graded(field, opts, directives):
    names, relations, numbers = directives
    field = _need_field(field)
    polys = [_relation(line, field, names) for line in relations]
    algebra = build_quotient_algebra(
        field, len(names), polys, top_bound=numbers["top-bound"], names=names
    )
    resolution = minimal_free_resolution(algebra, numbers["length"])
    expanded = expand(tensor_complex(resolution, koszul_complex(algebra)))
    return factor_filtration(expanded, numbers["factor"])


def _embedded(build):
    """A builder of blocks that name their field; the scenario's must match each."""

    def checked(field, opts, *blocks):
        for block in blocks:
            own = block.ambient.field if isinstance(block, FilteredComplex) else block.field
            if field is not None and field != own:
                raise ParseError(
                    f"scenario names field {field.token()} but the block is over {own.token()}"
                )
        return build(*blocks)

    return checked


# build kind -> (readers of its blocks, in file order; builder called with the
# field or None, the build options and the blocks read; the options it takes)
BUILDS = {
    "simplicial": ((_simplicial_blocks,), _build_simplicial, ("non-reduced",)),
    "filtered": ((parse_filtered,), _embedded(lambda fc: fc), ()),
    "truncation": ((parse_complex,), _embedded(truncation_filtration), ()),
    "tensor": ((parse_complex, parse_filtered), _embedded(tensor_filtration), ()),
    "tensor-mirrored": ((parse_filtered, parse_complex), _embedded(tensor_filtration), ()),
    "hom": ((parse_complex, parse_filtered), _embedded(hom_filtration), ()),
    "graded": ((_graded_directives,), _build_graded, ()),
}


def build_filtration(scenario, field):
    """Read the blocks of the scenario's build section and build their filtration.
    A ParseError that names no line of its own names the end-build line."""
    readers, build, _ = BUILDS[scenario.build_kind]
    lines = scenario.build_lines.copy()
    try:
        blocks = [read(lines) for read in readers]
        if not lines.done:
            raise lines.next(None).unexpected()
        return build(field, scenario.build_opts, *blocks)
    except ParseError as exc:
        if exc.line is None:
            raise ParseError(str(exc), line=lines.end) from None
        raise


def _degree_table(fc, n):
    labels = fc.ambient.term_labels(n)
    if labels and all(hasattr(lab, "degree") for lab in labels):
        return internal_degrees(fc.ambient, n)
    return None


def _cell_text(pres, table):
    if table is None:
        return str(pres.dim)
    parts = ",".join(
        f"{d}:{c}" for d, c in sorted(degree_breakdown(pres, table).items())
    )
    return f"{pres.dim}({parts})"


def render_page_grid(entries, tables, header):
    lines = [header]
    if not entries:
        lines.append("(empty)")
        return lines
    qs = sorted({q for (_, q) in entries}, reverse=True)
    ps = sorted({p for (p, _) in entries})
    cells = {(p, q): _cell_text(pres, tables[p + q]) for (p, q), pres in entries.items()}
    widths = {
        p: max(len(f"p={p}"), max(len(cells.get((p, q), ".")) for q in qs))
        for p in ps
    }
    lead = max(len(f"q={q}") for q in qs)
    head = " " * lead + "  " + "  ".join(f"p={p}".ljust(widths[p]) for p in ps)
    lines.append(head.rstrip())
    for q in qs:
        row = f"q={q}".ljust(lead) + "  " + "  ".join(
            cells.get((p, q), ".").ljust(widths[p]) for p in ps
        )
        lines.append(row.rstrip())
    return lines


def render_page_machine(r, entries, tables):
    lines = []
    for (p, q), pres in sorted(entries.items()):
        table = tables[p + q]
        line = f"{r} {p} {q} {pres.dim}"
        if table is not None:
            br = degree_breakdown(pres, table)
            line += "".join(f" {d}:{c}" for d, c in sorted(br.items()))
        lines.append(line)
    return lines


def parse_machine_page(text):
    """Inverse of render_page_machine over its own output."""
    out = {}
    for line in Lines(text):
        bad = f"bad page line {line.text!r}"
        if len(line.words) < 4:
            raise line.error(bad)
        r, p, q, dim = line.ints(line.words[:4], bad)
        degrees = {}
        for token in line.words[4:]:
            # a token without its ':' leaves c empty, which is no integer
            d, _, c = token.partition(":")
            d, c = line.ints((d, c), f"bad degree token {token!r}")
            degrees[d] = c
        if degrees and sum(degrees.values()) != dim:
            raise line.error(f"degree counts do not sum to {dim}")
        out[(r, p, q)] = (dim, degrees or None)
    return out


def _run_query(ss, query, machine, out):
    if query.kind == "page" or query.kind == "infinity":
        r = ss.r_star if query.kind == "infinity" else query.r
        entries = {pq: pres for pq, pres in ss.page(r).entries.items() if pres.dim}
        tables = {n: _degree_table(ss.source, n) for n in {p + q for p, q in entries}}
        if machine:
            lines = render_page_machine(r, entries, tables)
        else:
            header = (
                f"infinity (r={ss.r_star})"
                if query.kind == "infinity"
                else f"page {r}"
            )
            lines = render_page_grid(entries, tables, header)
        for line in lines:
            print(line, file=out)
        return 0
    if query.kind == "differential":
        m = ss.differential(query.r, query.p, query.q)
        print(
            f"differential {query.r} {query.p} {query.q} : {m.rows} x {m.cols}",
            file=out,
        )
        if machine:
            print(render_matrix_machine(m), file=out)
        elif m.rows:
            print(m.render_text(), file=out)
        return 0
    if query.kind == "image-length":
        m = ss.differential(query.r, query.p, query.q)
        table = _degree_table(ss.source, query.p + query.q - 1)
        if table is None:
            dim, br = rank(m), {}
        else:
            target = ss.entry(query.r, query.p - query.r, query.q + query.r - 1)
            dim, br = image_degree_breakdown(m, class_degrees(target, table))
        line = f"image-length {query.r} {query.p} {query.q} {dim}"
        print(line + "".join(f" {d}:{c}" for d, c in sorted(br.items())), file=out)
        return 0
    if query.kind == "compare":
        report = ss.limit_comparison(strict=False)
        for line in report.render().splitlines():
            print(line, file=out)
        print("compare ok" if report.ok else "compare FAIL", file=out)
        return 0 if report.ok else 1
    raise ParseError(f"unknown query kind {query.kind!r}")


def run(text, field_override=None, threads=1, machine=False, check=False, out=None):
    """Run a scenario's queries on the calling thread; return the exit status.

    `threads` is accepted and ignored, without a warning: perfbench still passes
    it, and it goes in the benchmark change that stops that (ROADMAP.md item 1)."""
    if out is None:
        out = sys.stdout
    scenario = parse_scenario(text)
    field = scenario.field if field_override is None else parse_field_token(field_override)
    try:
        fc = build_filtration(scenario, field)
    except ParseError:
        raise
    except (SpecseqError, ValueError) as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return 2
    if check:
        # building the filtration validated it
        print("check ok", file=out)
    ss = SpectralSequence(fc)
    code = 0
    try:
        for query in scenario.queries:
            code = max(code, _run_query(ss, query, machine, out))
    except NotWellDefined as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="specseq",
        description="Run spectral sequence queries from a scenario file.",
    )
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument("--field", default=None, help="override the scenario's field")
    parser.add_argument(
        "--machine", action="store_true", help="machine readable output"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="print 'check ok' once the filtration is built, which validates it",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        return run(
            text,
            field_override=args.field,
            machine=args.machine,
            check=args.check,
        )
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
