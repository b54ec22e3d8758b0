"""Fuzz the command line over mutated bundled scenarios.

However malformed a scenario file is, `specseq.cli.main` must return 0, 1
or 2 and raise nothing: exit 2 with a parse, build or read error on stderr,
exit 1 only for a failed comparison or check.  Mutants come from deleting,
duplicating, swapping or truncating lines and deleting tokens; none invents
a number, so none asks for more work than the scenario it came from.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import cli

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
MUTATIONS = ("delete", "duplicate", "swap", "truncate", "delete-token")


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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=mutants(), flags=st.sampled_from(([], ["--machine"], ["--check"])))
def test_mutated_scenarios_end_in_a_documented_exit(text, flags):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.scn"
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
