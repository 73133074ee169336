"""The benchmark's ball-hnn workload (perfbench/child.py) records every
CayleyBall built while `higgins certify configs/hnn_z2.gog` runs and checks
each one against a ball of Z x F2.  That holds only while the certificate's
ball is the one CayleyBall the run builds: loading the config derives the
reverse edge isomorphism off the split of an abelian subgroup with
independent images, which builds no ball, and no subgroup ball is built.
Check that here, so a change that builds a second ball fails in the tests
instead of in a benchmark run."""

from pathlib import Path

from higgins.certify import CayleyBall
from higgins.cli import main

HNN_Z2 = Path(__file__).resolve().parent.parent / "configs" / "hnn_z2.gog"


def test_hnn_certificate_builds_exactly_one_ball(monkeypatch, capsys):
    built = []
    init = CayleyBall.__init__

    def capture(ball, *args, **kwargs):
        built.append(ball)
        return init(ball, *args, **kwargs)
    monkeypatch.setattr(CayleyBall, "__init__", capture)
    code = main(["certify", str(HNN_Z2), "--what", "coset", "--system", "edge-cosets",
                 "--radius", "1"])
    assert code == 0 and capsys.readouterr().out.startswith("certificate ")
    assert len(built) == 1 and type(built[0]) is CayleyBall
