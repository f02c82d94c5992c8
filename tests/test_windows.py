"""Every route refuses a time window that is not finite with t_a < t_b.

The refusal is FrequencyProfile.jump_events, which each route asks before
any arithmetic on the window, so a bad window raises DomainError and never
reaches numpy as inf or NaN (no RuntimeWarning escapes).
"""

import math

import pytest

from conftest import PACKET
from tdho.classical import (SolutionCurve, closed_form, pair_from_solution,
                            solve_fundamental, spot_check_solution,
                            verify_solution)
from tdho.errors import DomainError
from tdho.evolve import (crank_nicolson, propagate_kernel, time_sliced_oracle,
                         uniform_grid)
from tdho.freq_profile import Constant
from tdho.kernel import compute_W, kernel, kernel_eq17

PROFILE = Constant(1.0)
COS = closed_form(PROFILE)
ONE = SolutionCurve(f=lambda t: 1.0, fdot=lambda t: 0.0, label="1")  # not a solution for omega = 1


def _packet(t_a):
    return PACKET.on_grid(uniform_grid(-8.0, 8.0, 128), t=t_a)


ROUTES = {
    "solve_fundamental": lambda a, b: solve_fundamental(PROFILE, a, b),
    "kernel": lambda a, b: kernel(PROFILE, a, b, 0.1, 0.2),
    "verify_solution": lambda a, b: verify_solution(PROFILE, COS, (a, b)),
    "spot_check_solution": lambda a, b: spot_check_solution(PROFILE, ONE, a, b),
    "compute_W": lambda a, b: compute_W(COS.f, a, b, PROFILE),
    "kernel_eq17": lambda a, b: kernel_eq17(PROFILE, COS, a, b, 0.1, 0.2),
    "pair_from_solution": lambda a, b: pair_from_solution(COS, PROFILE, a, b),
    "propagate_kernel": lambda a, b: propagate_kernel(PROFILE, _packet(a), b),
    "crank_nicolson": lambda a, b: crank_nicolson(PROFILE, _packet(a), b),
    "time_sliced_oracle": lambda a, b: time_sliced_oracle(PROFILE, _packet(a), b, 2),
}

BAD_WINDOWS = {
    "to-inf": (0.0, math.inf), "to-nan": (0.0, math.nan),
    "from-minus-inf": (-math.inf, 1.0), "from-nan": (math.nan, 1.0),
    "empty": (1.0, 1.0), "reversed": (1.0, 0.5),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("window", BAD_WINDOWS.values(), ids=BAD_WINDOWS.keys())
@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_every_route_refuses_a_bad_window(route, window):
    with pytest.raises(DomainError, match=r"need a finite window t_a < t_b"):
        route(*window)
