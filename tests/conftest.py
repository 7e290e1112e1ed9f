import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import dhlab
from dhlab import dhrep, model

AXES = (model.SpinDirection.x1(), model.SpinDirection.x2(), model.SpinDirection.x3())
PAIRS = ((1, 2), (2, 3), (3, 1))
KERNEL_TOL = 1e-14
CLI_ADDRESS_SPACE = 1 << 30
SRC_DIR = str(Path(dhlab.__file__).resolve().parents[1])


def run_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` that imports dhlab from this
    checkout, with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


def run_cli_capped(argv: list[str], config: str) -> subprocess.CompletedProcess:
    """Run `python -m dhlab.cli <argv>` on `config` (INI text) in a subprocess
    whose address space is capped at 1 GiB, so a config that asks for too
    much memory fails in the child with MemoryError instead of exhausting
    the machine."""
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(config)
        return run_python(["-m", "dhlab.cli", *argv, "--config", str(ini),
                           "--out", str(Path(tmp) / "out.json")],
                          preexec_fn=_cap_address_space)


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
