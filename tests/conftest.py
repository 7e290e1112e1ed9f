import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dhlab import dhrep, model

AXES = (model.SpinDirection.x1(), model.SpinDirection.x2(), model.SpinDirection.x3())
PAIRS = ((1, 2), (2, 3), (3, 1))
KERNEL_TOL = 1e-14

# tools/geometry_sweep.py holds the one subprocess runner: run_python (BLAS on
# one thread, dhlab from this checkout) and run_cli_capped (1 GiB, 60 s CPU)
_spec = importlib.util.spec_from_file_location(
    "geometry_sweep", Path(__file__).resolve().parents[1] / "tools" / "geometry_sweep.py")
geometry_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(geometry_sweep)
run_python, run_cli_capped = geometry_sweep.run_python, geometry_sweep.run_cli_capped


def grid_directions(n_theta: int, n_phi: int) -> list[model.SpinDirection]:
    """(theta, phi) product grid; even n_theta avoids theta = pi/2."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return [model.SpinDirection(float(t), float(p)) for t in thetas for p in phis]


def assert_moments_match(moments, expectation, correlation, dirs) -> None:
    """Spin moments (m, C) from a kernel reproduce a direct per-direction
    evaluator: u . m[r] = expectation(r, u) on every region and
    u_a^T C[a, b] u_b = correlation(a, u_a, b, u_b) on every pair."""
    m, c = moments
    for r in (1, 2, 3):
        for d in dirs:
            assert abs(d.unit_vector @ m[r - 1] - expectation(r, d)) <= KERNEL_TOL
    for a, b in PAIRS:
        for da in dirs:
            for db in dirs:
                kernel = da.unit_vector @ c[a - 1, b - 1] @ db.unit_vector
                assert abs(kernel - correlation(a, da, b, db)) <= KERNEL_TOL


@pytest.fixture(scope="session")
def suite_start() -> float:
    return time.perf_counter()


@pytest.fixture(scope="session", autouse=True)
def _start_clock(suite_start):
    return suite_start


@pytest.fixture(scope="session")
def cfg0() -> model.SystemConfig:
    return model.standard_config()


@pytest.fixture(scope="session")
def cfg05() -> model.SystemConfig:
    return model.standard_config(kappa=0.05)


@pytest.fixture(scope="session")
def cfg_probe() -> model.SystemConfig:
    return model.standard_config(kappa=0.05, probe_points=(32.0,))


@pytest.fixture(scope="session")
def t_un0(cfg0) -> dhrep.DhTransform:
    return dhrep.build_unentangled_transform(cfg0)


@pytest.fixture(scope="session")
def t_un05(cfg05) -> dhrep.DhTransform:
    return dhrep.build_unentangled_transform(cfg05)


@pytest.fixture(scope="session")
def t_en05(cfg05, t_un05) -> dhrep.DhTransform:
    return dhrep.build_entangled_transform(cfg05, t_un05)


@pytest.fixture(scope="session")
def t_un_probe(cfg_probe) -> dhrep.DhTransform:
    return dhrep.build_unentangled_transform(cfg_probe)


@pytest.fixture(scope="session")
def t_en_probe(cfg_probe, t_un_probe) -> dhrep.DhTransform:
    return dhrep.build_entangled_transform(cfg_probe, t_un_probe)
