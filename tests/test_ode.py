"""The numpy-free RK4 integration of ``ode``: its blow-up guard's message."""

import pytest

from wavesym.ode import NumVerifyError, ODEProblem, integrate

# leaves the bound at step 1489
BLOWUP = ODEProblem("y * y", 0.0, 3.0, 0.0, 10.0, 1e-3, bound=1e3)


def test_bound_failure_gives_the_in_process_message():
    with pytest.raises(NumVerifyError) as here:
        integrate(BLOWUP)
    assert str(here.value) == "trajectory exceeded bound 1000.0 at x=1.489"
