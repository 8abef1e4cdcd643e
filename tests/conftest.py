import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantbench import catalog
from quantbench.quantize import quantize_monomial


@pytest.fixture(scope="session")
def orbit_scenarios():
    return {k: catalog.su2_orbit_scenario(k) for k in range(4)}


@pytest.fixture(scope="session")
def rotation_scenarios():
    return {k: catalog.u1_rotation_scenario(k) for k in (2, 3, 4)}


@pytest.fixture(scope="session")
def orbit_quantizations(orbit_scenarios):
    return {k: quantize_monomial(s) for k, s in orbit_scenarios.items()}


@pytest.fixture(scope="session")
def rotation_quantizations(rotation_scenarios):
    return {k: quantize_monomial(s) for k, s in rotation_scenarios.items()}


@pytest.fixture(scope="session")
def gauge_su2_1():
    return catalog.gauge_su2_scenario(1)
