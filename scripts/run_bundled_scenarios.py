"""Run every bundled scenario and diff against its recorded output.

Usage: python3 scripts/run_bundled_scenarios.py [--update]

The bundled scenarios are the .scn files in scenarios/ and in
scenarios/scale/.  The scale ones take about a second each, so the tests,
the fuzzer and scripts/canonical_dump.py read only those in scenarios/.

With --update the recorded .expected files are rewritten from the current
run instead of being compared.
"""

import argparse
import io
import pathlib
import sys

from specseq import cli

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the .expected files from this run")
    args = parser.parse_args(argv)

    failures = 0
    for scn in sorted(SCENARIO_DIR.rglob("*.scn")):
        name = scn.relative_to(SCENARIO_DIR)
        buf = io.StringIO()
        code = cli.run(scn.read_text(), out=buf)
        got = buf.getvalue()
        expected_path = scn.with_suffix(".expected")
        if code != 0:
            print(f"{name}: exit {code}")
            failures += 1
            continue
        if args.update:
            expected_path.write_text(got)
            print(f"{name}: recorded {len(got.splitlines())} lines")
            continue
        if not expected_path.exists():
            print(f"{name}: no recorded output, run with --update")
            failures += 1
            continue
        if got != expected_path.read_text():
            print(f"{name}: MISMATCH against {expected_path.name}")
            failures += 1
        else:
            print(f"{name}: ok ({len(got.splitlines())} lines)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
