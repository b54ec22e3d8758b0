import pathlib
import sys

from specseq.errors import NotWellDefined
from specseq.spectral import SpectralSequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
import property_sweep  # noqa: E402


def test_a_raising_page_map_is_counted_as_the_instance_problem(monkeypatch, capsys):
    # page maps of the generated copy work; those of the moved copy raise
    real = SpectralSequence.differential
    seen = []

    def broken(ss, r, p, q):
        # the first sequence asked is the generated copy's
        if not seen:
            seen.append(ss)
        if ss is seen[0]:
            return real(ss, r, p, q)
        raise NotWellDefined("forced")

    monkeypatch.setattr(SpectralSequence, "differential", broken)
    assert property_sweep.main(["--instances", "1", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance 0: moved: NotWellDefined: forced"
    assert lines[1].startswith("1 instances over QQ: 1 failures")
