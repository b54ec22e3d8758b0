"""Randomized invariant sweep over generated filtered complexes.

For each instance the script builds a filtration, which validates it, and
checks that the spectral sequence keeps the invariants of
`invariant_problem`, which tests/test_acceptance.py checks too, and that
every page's dimensions and the limit comparison's gr_p H_n agree with
perfbench/oracle.py's barcode, which shares no code with specseq.  The
pages and the comparison read the same persistence reductions, so the
comparison alone cannot vouch for them.
It checks each instance twice: as generated, with coordinate layers, and
moved by a random unitriangular change of basis (`change_of_basis` in
tests/test_spectral.py), whose layers are in general not spanned by basis
vectors; dimensions do not depend on the basis, so one barcode serves both.
A specseq error raised on the way, such as a page map that is not well
defined, is reported as that instance's problem.

Usage: python3 scripts/property_sweep.py --instances 200 --seed 7 --field F101
(imports tests/test_spectral.py, so pytest must be importable)
"""

import argparse
import pathlib
import random
import sys
import time

from specseq.complexes import homology_rank
from specseq.errors import ParseError, SpecseqError
from specseq.fields import QQ, parse_field_token
from specseq.linalg import kernel, rank
from specseq.randomized import random_filtered_complex
from specseq.spectral import SpectralSequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from test_spectral import change_of_basis, level_barcode  # noqa: E402


def field_argument(token):
    try:
        return parse_field_token(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def invariant_problem(ss):
    """The first invariant that ss breaks, as a message, or None.

    Every page differential squares to zero, consecutive page dimensions
    satisfy the homology turning identity, the infinity page adds up to
    ambient homology in each degree, and the limit comparison holds.
    """
    fc = ss.source
    positions = [(p, n - p) for p in fc.p_range for n in fc.ambient.degrees()]
    for r in range(1, ss.r_star + 1):
        for p, q in positions:
            out = ss.differential(r, p, q)
            back = ss.differential(r, p - r, q + r - 1)
            if not (back @ out).is_zero:
                return f"d^{r} composite nonzero at ({p},{q})"
            arriving = ss.differential(r, p + r, q - r + 1)
            turned = kernel(out).dim - rank(arriving)
            if ss.entry(r + 1, p, q).dim != turned:
                return f"turning identity fails at r={r} ({p},{q})"
    for n in fc.ambient.degrees():
        total = sum(ss.infinity_page().entry(p, n - p).dim for p in fc.p_range)
        if total != homology_rank(fc.ambient, n):
            return f"infinity total mismatch in degree {n}"
    if not ss.limit_comparison(strict=False).ok:
        return "limit comparison failed"
    return None


def oracle_problem(ss, bars):
    """The first page or gr_p H_n dimension of ss that disagrees with the
    barcode bars, as a message, or None."""
    for r in range(1, ss.r_star + 1):
        if ss.page(r).dims() != bars.page_dims(r):
            return f"page {r} disagrees with the barcode oracle"
    for n, p, _, gr, _ in ss.limit_comparison(strict=False).rows:
        if gr != bars.graded_homology(n, p):
            return f"gr_{p} H_{n} disagrees with the barcode oracle"
    return None


def check_instance(field, rng, top_degree, max_dim, max_width):
    fc, levels = random_filtered_complex(
        field, rng, top_degree=top_degree, max_dim=max_dim, max_width=max_width
    )
    bars = level_barcode(fc, levels)
    for label, case in (("", fc), ("moved: ", change_of_basis(fc, rng))):
        ss = SpectralSequence(case)
        try:
            problem = invariant_problem(ss) or oracle_problem(ss, bars)
        except SpecseqError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            return label + problem
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--field", type=field_argument, default=QQ,
                        help="QQ or F<p> (default QQ)")
    parser.add_argument("--top-degree", type=int, default=3)
    parser.add_argument("--max-dim", type=int, default=6)
    parser.add_argument("--max-width", type=int, default=4)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    bad = 0
    for trial in range(args.instances):
        rng = random.Random(args.seed * 1_000_003 + trial)
        problem = check_instance(
            args.field, rng, args.top_degree, args.max_dim, args.max_width
        )
        if problem is not None:
            print(f"instance {trial}: {problem}")
            bad = bad + 1
    elapsed = time.perf_counter() - start
    label = "all ok" if bad == 0 else f"{bad} failures"
    print(f"{args.instances} instances over {args.field}: {label} ({elapsed:.2f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
