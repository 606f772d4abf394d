"""The ODE helper process: each result handed out once, in any order, and
nothing handed out that the helper could not send whole."""

import os

import pytest

from wavesym import ode
from wavesym.ode import (
    NumVerifyError, ODEProblem, ZETA1_RHS, ZETA2_RHS, Helper, _solve, integrate,
)

CONSTS = {"K": 1.0, "c": 1.0, "c1": 1.0}
Z1 = ODEProblem(ZETA1_RHS, 0.3, 0.0, 0.0, 0.8, 1e-4, consts=CONSTS)
Z2 = ODEProblem(ZETA2_RHS, 0.9, 0.0, 0.0, 1.6, 1e-4, consts=CONSTS)
# leaves the bound at step 1489
BLOWUP = ODEProblem("y * y", 0.0, 3.0, 0.0, 10.0, 1e-3, bound=1e3)


def same(result, problem) -> bool:
    """Whether result is problem's (ys, yps, failed), solved here."""
    ys, yps, failed = _solve(problem)
    if failed is not None:
        return result == (None, None, failed)
    return (result[0].tobytes(), result[1].tobytes(), result[2]) == (
        ys.tobytes(), yps.tobytes(), None)


@pytest.fixture
def helper_of():
    """Start helpers on problems; each is closed, and no child is left."""
    helpers = []

    def start(*problems):
        helpers.append(Helper(list(problems)))
        return helpers[-1]

    yield start
    for helper in helpers:
        helper.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_in_any_order_each_once(helper_of):
    helper = helper_of(Z1, Z2, Z1)
    assert helper.pid is not None
    assert same(helper.take(Z2), Z2)  # Z1 is read first and kept
    assert same(helper.take(Z1), Z1)
    assert same(helper.take(Z1), Z1)  # the second Z1
    assert helper.take(Z1) is None and helper.take(Z2) is None


def test_a_problem_not_given_is_left_to_the_caller(helper_of):
    helper = helper_of(Z1)
    other = ODEProblem(ZETA1_RHS, 0.3, 0.0, 0.0, 0.8, 1e-4, consts={**CONSTS, "c1": 2.0})
    assert helper.take(other) is None
    # an int constant equal to a float one is another problem
    assert helper.take(ODEProblem(ZETA1_RHS, 0.3, 0.0, 0.0, 0.8, 1e-4,
                                  consts={**CONSTS, "K": 1})) is None
    assert same(helper.take(Z1), Z1)


def test_bound_failure_gives_the_in_process_message(helper_of):
    helper = helper_of(BLOWUP, Z1)
    with pytest.raises(NumVerifyError) as here:
        integrate(BLOWUP)
    with pytest.raises(NumVerifyError) as sent:
        integrate(BLOWUP, helper)
    assert str(sent.value) == str(here.value) == "trajectory exceeded bound 1000.0 at x=1.489"
    assert same(helper.take(Z1), Z1)


@pytest.mark.parametrize("send", [
    lambda fd: None,  # dies before writing
    lambda fd: ode._write(fd, ode._HEADER.pack(7, 0)),  # no such status
    # whole, but 5 states where Z1 has 5001
    lambda fd: ode._write(fd, ode._HEADER.pack(ode._STATES, 5) + bytes(2 * 8 * 5)),
    lambda fd: ode._write(fd, ode._HEADER.pack(ode._BOUND, 0)),  # no such step
    # Z1's 5001 y states, and no y' states
    lambda fd: ode._write(fd, ode._HEADER.pack(ode._STATES, 5001) + bytes(8 * 5001)),
], ids=["nothing", "status", "count", "step", "short"])
def test_a_bad_result_closes_the_helper(helper_of, monkeypatch, send):
    # the first result is whole, the second bad: the first is still handed
    # out, the second and everything after is the caller's to solve
    serve = ode._serve

    def first_then_bad(problems, fd):
        serve(problems[:1], fd)
        send(fd)

    monkeypatch.setattr(ode, "_serve", first_then_bad)
    helper = helper_of(Z2, Z1, Z2)
    assert Z1.mesh()[0] == 5000
    assert helper.take(Z1) is None and helper.pid is None and helper.fd is None
    assert same(helper.take(Z2), Z2)
    assert helper.take(Z2) is None
    assert integrate(Z1, helper)[0].tobytes() == _solve(Z1)[0].tobytes()


def test_without_a_fork_nothing_is_sent(helper_of, monkeypatch):
    monkeypatch.delattr(os, "fork")
    helper = helper_of(Z1)
    assert helper.pid is None and helper.take(Z1) is None


def test_a_failed_fork_closes_the_pipe(helper_of, monkeypatch):
    def fail():
        raise OSError("fork refused")

    before = os.pipe()
    for fd in before:
        os.close(fd)
    monkeypatch.setattr(os, "fork", fail)
    helper = helper_of(Z1)
    assert helper.pid is None and helper.take(Z1) is None
    # the failed fork's two pipe ends were closed: the next pipe reuses them
    after = os.pipe()
    for fd in after:
        os.close(fd)
    assert after == before


def test_close_twice_is_harmless(helper_of):
    helper = helper_of(Z1)
    helper.close()
    helper.close()
    assert helper.pid is None and helper.take(Z1) is None
