"""Every route refuses a scale that is not positive and finite.

The mass mu, a solver's tol, a Gaussian's sigma and Crank-Nicolson's step
dt go through one check, errors.check_positive, before any arithmetic, so a
bad scale raises DomainError and never reaches numpy as inf or NaN (no
RuntimeWarning escapes).  tests/test_kernel.py checks the Schrodinger
residual's steps.
"""

import math

import pytest

from conftest import PACKET
from tdho.classical import closed_form, solve_fundamental
from tdho.errors import DomainError
from tdho.evolve import (GaussianState, crank_nicolson, max_slices,
                         propagate_kernel, time_sliced_oracle, uniform_grid)
from tdho.freq_profile import Constant
from tdho.kernel import kernel, kernel_eq17, kernel_robust

PROFILE = Constant(1.0)
COS = closed_form(PROFILE)


def _packet():
    return PACKET.on_grid(uniform_grid(-8.0, 8.0, 128))


MU_ROUTES = {
    "kernel": lambda mu: kernel(PROFILE, 0.0, 1.0, 0.1, 0.2, mu=mu),
    "kernel_eq17": lambda mu: kernel_eq17(PROFILE, COS, 0.0, 1.0, 0.1, 0.2, mu=mu),
    "kernel_robust": lambda mu: kernel_robust(solve_fundamental(PROFILE, 0.0, 1.0), 0.1, 0.2, mu=mu),
    "propagate_kernel": lambda mu: propagate_kernel(PROFILE, _packet(), 1.0, mu=mu),
    "crank_nicolson": lambda mu: crank_nicolson(PROFILE, _packet(), 1.0, mu=mu),
    "time_sliced_oracle": lambda mu: time_sliced_oracle(PROFILE, _packet(), 1.0, 2, mu=mu),
    "max_slices": lambda mu: max_slices(_packet(), 1.0, mu=mu),
}

BAD_SCALES = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_SCALES.values(), ids=BAD_SCALES.keys())
@pytest.mark.parametrize("route", MU_ROUTES.values(), ids=MU_ROUTES.keys())
def test_every_route_refuses_a_bad_mu(route, value):
    with pytest.raises(DomainError, match=r"^mu must be positive and finite, got"):
        route(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_SCALES.values(), ids=BAD_SCALES.keys())
def test_the_solver_refuses_a_bad_tol(value):
    with pytest.raises(DomainError, match=r"^tol must be positive and finite, got"):
        solve_fundamental(PROFILE, 0.0, 1.0, tol=value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_SCALES.values(), ids=BAD_SCALES.keys())
def test_a_gaussian_refuses_a_bad_sigma(value):
    with pytest.raises(DomainError, match=r"^sigma must be positive and finite, got"):
        GaussianState(sigma=value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_SCALES.values(), ids=BAD_SCALES.keys())
def test_crank_nicolson_refuses_a_bad_dt(value):
    # dt = inf once marched one step per segment with only a StabilityWarning
    with pytest.raises(DomainError, match=r"^dt must be positive and finite, got"):
        crank_nicolson(PROFILE, _packet(), 1.0, dt=value)
