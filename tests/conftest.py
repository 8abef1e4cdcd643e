import math
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantbench import catalog

# `tools/mutants.py` selects this profile: the first failing example kills a
# mutant, so none is shrunk, and no example database is read or written
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate),
                          database=None)


@pytest.fixture(scope="session")
def orbit_scenarios():
    return {k: catalog.su2_orbit_scenario(k) for k in range(4)}


@pytest.fixture(scope="session")
def rotation_scenarios():
    return {k: catalog.u1_rotation_scenario(k) for k in (2, 3, 4)}


@pytest.fixture(scope="session")
def orbit_quantizations(orbit_scenarios):
    return {k: s.representation for k, s in orbit_scenarios.items()}


@pytest.fixture(scope="session")
def rotation_quantizations(rotation_scenarios):
    return {k: s.representation for k, s in rotation_scenarios.items()}


@pytest.fixture(scope="session")
def preset():
    """`preset(scenario, **artifacts)`: a `replace()` copy of `scenario` that
    keeps `artifacts` (`operators=`, `basis=`, `representation=`, ...) as if
    it had built them.  A `cached_property` is a non-data descriptor, so
    every reader of the copy sees the value in its instance dict."""
    def make(scenario, **artifacts):
        copy = scenario.replace()
        vars(copy).update(artifacts)
        return copy
    return make


@pytest.fixture(scope="session")
def gauge_su2_1():
    return catalog.gauge_su2_scenario(1)


@pytest.fixture(scope="session")
def fs_quadrature():
    """Float oracle for `quantize.inner_product`: the Fubini-Study integral of
    conj(f) g h on `patch`, by scipy's `dblquad` in polar coordinates, with
    error targets of 1e-10."""
    integrate = pytest.importorskip("scipy.integrate")

    def quadrature(bundle, elem1, elem2, patch):
        x_name, y_name = bundle.cover.atlas.chart(bundle.patch_chart(patch)).fiber_coords
        expr = elem1[patch].conj() * elem2[patch] * bundle.weight(patch)

        def density(r, theta):
            value = expr.numeric({x_name: r * math.cos(theta), y_name: r * math.sin(theta)})
            return value * r / math.pi / (1 + r * r) ** 2

        re_val, im_val = (
            integrate.dblquad(lambda r, t: getattr(density(r, t), part), 0, 2 * math.pi,
                              0, math.inf, epsabs=1e-10, epsrel=1e-10)[0]
            for part in ("real", "imag"))
        return complex(re_val, im_val)
    return quadrature
