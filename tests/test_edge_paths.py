"""Edge paths: a z0 gradient component at genus >= 2, cutoff embedding,
cross-cutoff cache reuse, and the factored rational functions behind V_m."""
import pytest

from cubichodge.jets import CutoffError, JetPoly, _raw
from cubichodge.loop import LoopEquationError, LoopSolver, load_cached, store_cached
from cubichodge.phiseries import TSeries
from cubichodge.ratio import Q
from cubichodge.sigma import SigmaPoly
from cubichodge.sparse import split
from cubichodge.virasoro import FactoredRational

from test_virasoro import naive_residue


class TestZ0Gradient:
    def test_z0_component_rejected(self):
        # body z0*z2 is closed and satisfies the genus-2 Euler identity, but
        # H_g for g >= 2 cannot depend on z0
        solver = LoopSolver(2)
        M = solver.cutoff
        body = JetPoly.z(0, M) * JetPoly.z(2, M)
        grad = [body.partial(i) for i in range(5)]
        with pytest.raises(LoopEquationError):
            solver.reconstruct(2, grad)


def with_cutoff(p: JetPoly, new: int) -> JetPoly:
    """p viewed at another jet cutoff; narrowing rejects jets above it."""
    if new == p.cutoff:
        return p
    if new < p.cutoff and any(split(key, 3 + new)[1] for key in p.terms):
        raise CutoffError(f"term uses jets above z{new}")
    # slots past the cutoff are zero, so the keys carry over unchanged
    return _raw(new, p.terms, p.den, p.bound)


class TestCutoffViews:
    def test_embed_and_restrict(self):
        p = JetPoly.z(2, 4) * JetPoly.z(1, 4, -1) * Q(3, 5)
        wide = with_cutoff(p, 7)
        assert wide.cutoff == 7 and with_cutoff(wide, 4) == p

    def test_restrict_rejects_high_jets(self):
        p = JetPoly.z(6, 7)
        with pytest.raises(CutoffError):
            with_cutoff(p, 4)


class TestCrossCutoffCache:
    def test_small_run_feeds_large_run(self, tmp_path):
        cache = str(tmp_path)
        small = LoopSolver(2).compute(2, cache_dir=cache)
        big = LoopSolver(3).compute(3, cache_dir=cache)
        assert big[1].provenance.get("cache") == "hit"
        assert big[1].body == with_cutoff(small[1].body, big[1].body.cutoff)

    def test_large_run_feeds_small_run(self, tmp_path):
        cache = str(tmp_path)
        LoopSolver(3).compute(3, cache_dir=cache)
        again = LoopSolver(2).compute(2, cache_dir=cache)
        assert again[1].provenance.get("cache") == "hit"

    def test_oversized_jets_force_recompute(self, tmp_path, h123):
        # genus-3 data cannot re-materialize at a genus-1 cutoff; the loader
        # must miss rather than truncate
        h3 = h123[2]
        h3.provenance["ptable"] = "fp"
        path = store_cached(str(tmp_path), h3)
        assert load_cached(str(tmp_path), 3, "fp", cutoff=5) is None
        assert path.endswith("free_energy_g3.json")


class TestFactoredRational:
    def test_zinv_expansion_geometric(self):
        # z / (z - 1) = sum z^-n
        f = FactoredRational([0], [1])
        assert f.zinv_expansion(5) == [Q(1)] * 6

    def test_residue(self):
        f = FactoredRational([], [2, 3])
        assert naive_residue(f, Q(2)) == Q(-1)
        assert naive_residue(f, Q(7)) == Q(0)


class TestSeriesEdges:
    def test_pow(self):
        s = TSeries(0, 6, {(1,): SigmaPoly.one(), (2,): SigmaPoly.one()})
        cube = s**3
        assert cube.coefficient((3,)) == SigmaPoly.one()
        assert cube.coefficient((4,)) == SigmaPoly.const(3)

    def test_exp_rejects_nonvanishing(self):
        with pytest.raises(ValueError):
            TSeries(0, 4, {(0,): SigmaPoly.one()}).exp()
