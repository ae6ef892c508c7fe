import time

import pytest

from cubichodge import LoopSolver


@pytest.fixture(scope="session")
def solver_g4():
    """A fresh solver driven through genus 4, with per-genus wall times."""
    solver = LoopSolver(4)
    times = {}
    energies = []
    for g in range(1, 5):
        t0 = time.monotonic()
        energies.append(solver.solve_genus(g, energies))
        times[g] = time.monotonic() - t0
    return solver, energies, times


@pytest.fixture(scope="session")
def energies_g5(solver_g4):
    """H_1..H_5 from one genus-5 solver, apart from the genus-4 one."""
    solver = LoopSolver(5)
    return solver.compute(5)


@pytest.fixture(scope="session")
def energies_g6(energies_g7):
    """H_1..H_6, read off the genus-7 solve (same texts as a genus-6 solver)."""
    return energies_g7[:6]


@pytest.fixture(scope="session")
def energies_g7():
    """H_1..H_7 from one genus-7 solver."""
    return LoopSolver(7).compute(7)


@pytest.fixture(scope="session")
def h123(solver_g4):
    _, energies, _ = solver_g4
    return energies[:3]
