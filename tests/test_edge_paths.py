"""Edge paths: a z0 gradient component at genus >= 2, cache reuse across
genera, and the reference residue over root lists behind the V_m tests."""
import pytest

from cubichodge.jets import JetPoly
from cubichodge.loop import FreeEnergy, LoopEquationError, LoopSolver, load_cached
from cubichodge.phiseries import TSeries
from cubichodge.ratio import Q

from test_loop import _store_tampered
from test_virasoro import naive_residue


class TestZ0Gradient:
    def test_z0_component_rejected(self):
        # body z0*z2 is closed and satisfies the genus-2 Euler identity, but
        # H_g for g >= 2 cannot depend on z0
        solver = LoopSolver(2)
        body = JetPoly.z(0) * JetPoly.z(2)
        grad = [body.partial(i) for i in range(5)]
        with pytest.raises(LoopEquationError):
            solver.reconstruct(2, grad)


class TestCrossGenusCache:
    def test_small_run_feeds_large_run(self, tmp_path):
        cache = str(tmp_path)
        small = LoopSolver(2).compute(2, cache_dir=cache)
        big = LoopSolver(3).compute(3, cache_dir=cache)
        assert big[1].provenance.get("cache") == "hit"
        assert big[1].body == small[1].body

    def test_large_run_feeds_small_run(self, tmp_path):
        cache = str(tmp_path)
        big = LoopSolver(3).compute(3, cache_dir=cache)
        again = LoopSolver(2).compute(2, cache_dir=cache)
        assert again[1].provenance.get("cache") == "hit"
        assert again[1].body == big[1].body

    def test_oversized_jets_force_recompute(self, tmp_path, h123):
        # H_3 carries z1..z7; stored as a genus-2 record, whose jets end at
        # z4, the loader must miss rather than accept or truncate it
        _store_tampered(tmp_path, h123[2])
        assert load_cached(str(tmp_path), 3) is not None
        _store_tampered(tmp_path, FreeEnergy(2, h123[2].body))
        assert load_cached(str(tmp_path), 2) is None


class TestFactoredRational:
    def test_residue(self):
        # 1 / ((z - 2)(z - 3)), and z / (z (z - 2)) with its common root
        assert naive_residue([], [Q(2), Q(3)], Q(2)) == Q(-1)
        assert naive_residue([], [Q(2), Q(3)], Q(7)) == Q(0)
        assert naive_residue([Q(0)], [Q(0), Q(2)], Q(0)) == Q(0)
        assert naive_residue([Q(0)], [Q(0), Q(2)], Q(2)) == Q(1)


class TestSeriesEdges:
    def test_pow(self):
        s = TSeries(0, 6, {(1,): JetPoly.one(), (2,): JetPoly.one()})
        cube = s**3
        assert cube.coefficient((3,)) == JetPoly.one()
        assert cube.coefficient((4,)) == JetPoly.const(3)

    def test_exp_rejects_nonvanishing(self):
        with pytest.raises(ValueError):
            TSeries(0, 4, {(0,): JetPoly.one()}).exp()
