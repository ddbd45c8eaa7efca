import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayw import (
    AlphaOutOfRange,
    AssignmentMode,
    ConditionViolated,
    DomainError,
    NonFiniteInput,
    NotAssignableAsRightmost,
    SystemParams,
    as_target,
    assign_both,
    assign_current_only,
    assign_delay_only,
    assign_input_delay,
    assign_real_both,
    char_residual,
    feasibility_report,
    on_w0_boundary,
    spectrum,
)

PLANT = SystemParams(a=1.0, a1d=-1.0, b=1.0, h=1.0)
EPS = math.ulp(1.0)


def test_published_gain_table():
    # the worked example: three targets on the same plant
    r1 = assign_both(PLANT, -0.092484 + 1.99730j)
    assert abs(r1.gains.k - (-2.0)) < 1e-4
    assert abs(r1.gains.k1d - (-1.0)) < 1e-4
    r2 = assign_both(PLANT, -0.60502 + 1.78820j)
    assert abs(r2.gains.k - (-2.0)) < 1e-4
    assert abs(r2.gains.k1d - 0.0) < 1e-4
    r3 = assign_real_both(PLANT, -1.0)
    assert r3.gains.k == -2.0
    assert r3.gains.k1d == 1.0
    assert r3.closed_loop.beta == 0.0


def test_both_rightmost_lands_on_target():
    for S in (-0.092484 + 1.99730j, -0.60502 + 1.78820j):
        r = assign_both(PLANT, S)
        rm = spectrum(r.closed_loop, 4).rightmost
        assert abs(rm - r.predicted_rightmost) < 1e-12
        assert r.feasible


def test_both_halfpi_cot_vanishes():
    # u = a makes the proportional correction vanish
    S = complex(PLANT.a, math.pi / 2)
    r = assign_both(PLANT, S)
    assert r.gains.k == 0.0
    want_k1d = -((math.pi / 2) * math.exp(PLANT.a) + PLANT.a1d) / PLANT.b
    assert r.gains.k1d == pytest.approx(want_k1d, rel=1e-14)


def test_both_rejects_real_target():
    with pytest.raises(DomainError):
        assign_both(PLANT, -1.0)


def test_window_violation_carries_design():
    S = -0.5 + 5.0j  # v*h = 5 > pi
    with pytest.raises(NotAssignableAsRightmost) as info:
        assign_both(PLANT, S)
    exc = info.value
    assert exc.window == (0.0, math.pi / PLANT.h)
    # the would-be gains still make S an eigenvalue, just not the rightmost
    assert abs(char_residual(exc.closed_loop, S)) < 1e-12
    rm = spectrum(exc.closed_loop, 6).rightmost
    assert rm.real > S.real


def test_both_window_underflow_is_singular():
    # v is nonzero, but v*h underflows to 0, where sin(v*h) vanishes
    with pytest.raises(NotAssignableAsRightmost, match="is a multiple of pi") as info:
        assign_both(SystemParams(a=0.5, a1d=1.0, b=1.0, h=0.1), complex(-1.0, 5e-324))
    assert info.value.window == (0.0, math.pi / 0.1)


def test_delay_only_real():
    p0 = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0)
    r = assign_delay_only(p0, -0.5)
    assert r.gains.k == 0.0
    assert r.gains.k1d == pytest.approx(-0.5 * math.exp(-0.5), abs=1e-12)
    assert abs(r.gains.k1d - (-0.303265)) < 1e-6
    assert spectrum(r.closed_loop, 2).rightmost == pytest.approx(-0.5, abs=1e-14)


def test_delay_only_real_condition_boundary():
    p0 = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0)
    with pytest.raises(ConditionViolated) as info:
        assign_delay_only(p0, -2.0)
    assert info.value.residual == pytest.approx(-1.0)


def test_delay_only_real_marginal():
    # S = a - 1/h exactly puts (S - alpha)*h at -1: the design lands on
    # the W branch point, where the rightmost root is double
    r = assign_delay_only(SystemParams(a=0.5, a1d=1.0, b=1.0, h=2.0), 0.0)
    assert r.certificate.endswith("; marginal: double rightmost root")
    assert spectrum(r.closed_loop, 0).roots[0].multiplicity == 2


def test_delay_only_complex_constructed():
    # build a plant whose a satisfies the boundary condition exactly
    h = 0.8
    v = 2.1 / h
    u = -0.4
    a = u + v * math.cos(v * h) / math.sin(v * h)
    sys = SystemParams(a=a, a1d=0.5, b=-2.0, h=h)
    r = assign_delay_only(sys, complex(u, v))
    assert r.gains.k == 0.0
    rm = spectrum(r.closed_loop, 4).rightmost
    assert abs(rm - complex(u, v)) < 1e-11


def test_delay_only_published_target_needs_matching_plant():
    # on a plant with a = -1 the second published target satisfies the
    # condition to its 5-figure precision and the delay gain vanishes
    pm1 = SystemParams(a=-1.0, a1d=-1.0, b=1.0, h=1.0)
    r = assign_delay_only(pm1, -0.60502 + 1.78820j, cond_tol=1e-4)
    assert abs(r.gains.k1d) < 1e-4
    with pytest.raises(ConditionViolated):
        assign_delay_only(PLANT, -0.60502 + 1.78820j)


def test_current_only_real_not_rightmost():
    # k = e - 2 makes S = -1 an eigenvalue, but a real root sits right of it
    r = assign_current_only(PLANT, -1.0)
    assert r.gains.k == pytest.approx(math.e - 2.0, abs=1e-12)
    assert abs(r.gains.k - 0.718282) < 1e-6
    assert not r.feasible
    assert abs(char_residual(r.closed_loop, -1.0)) < 1e-14
    assert spectrum(r.closed_loop, 2).rightmost.real > -1.0


def test_current_only_real_feasible():
    # small delayed term keeps (S - alpha)*h above -1
    sys = SystemParams(a=0.5, a1d=-0.2, b=1.0, h=1.0)
    r = assign_current_only(sys, -0.3)
    assert r.feasible
    assert spectrum(r.closed_loop, 2).rightmost == pytest.approx(-0.3, abs=1e-12)


def test_current_only_complex_constructed():
    u, v, h = -0.25, 1.99730, 1.0
    a1d = -v * math.exp(u * h) / math.sin(v * h)
    sys = SystemParams(a=0.7, a1d=a1d, b=2.0, h=h)
    r = assign_current_only(sys, complex(u, v))
    assert r.feasible
    assert r.gains.k1d == 0.0
    rm = spectrum(r.closed_loop, 4).rightmost
    assert abs(rm - complex(u, v)) < 1e-12


def test_current_only_complex_condition_violated():
    sys = SystemParams(a=0.0, a1d=1.0, b=1.0, h=1.0)
    with pytest.raises(ConditionViolated) as info:
        assign_current_only(sys, 0.3 + 1.0j)
    assert info.value.residual == pytest.approx(1.0 + math.exp(0.3) / math.sin(1.0), rel=1e-12)


def test_real_both_alpha_choice():
    r = assign_real_both(PLANT, -1.0, alpha_choice=-1.5)
    assert r.gains.k == -2.5
    assert r.gains.k1d == pytest.approx((0.5 * math.exp(-1.0) + 1.0), rel=1e-14)
    assert abs(r.gains.k1d - 1.183940) < 1e-6
    assert spectrum(r.closed_loop, 3).rightmost == pytest.approx(-1.0, abs=1e-11)


def test_real_both_alpha_bounds():
    with pytest.raises(AlphaOutOfRange) as info:
        assign_real_both(PLANT, -1.0, alpha_choice=0.5)
    assert info.value.margin == pytest.approx(-0.5)
    # boundary value is accepted and flagged as the double-root case
    r = assign_real_both(PLANT, -1.0, alpha_choice=0.0)
    assert "marginal" in r.certificate
    assert r.closed_loop.w_argument == pytest.approx(-math.exp(-1.0), rel=1e-15)
    assert spectrum(r.closed_loop, 2).rightmost == pytest.approx(-1.0, abs=1e-7)
    with pytest.raises(NonFiniteInput):
        assign_real_both(PLANT, -1.0, alpha_choice=math.nan)


def test_real_both_rejects_complex_target():
    with pytest.raises(DomainError):
        assign_real_both(PLANT, -1.0 + 0.5j)


def test_input_delay_examples():
    sys = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0, input_delay=True)
    r = assign_input_delay(sys, -0.5)
    assert r.gains.k == pytest.approx(-0.5 * math.exp(-0.5), abs=1e-12)
    r = assign_input_delay(sys, complex(0.0, math.pi / 2))
    assert r.gains.k == pytest.approx(-math.pi / 2, rel=1e-14)
    rm = spectrum(r.closed_loop, 3).rightmost
    assert abs(rm - complex(0.0, math.pi / 2)) < 1e-12
    with pytest.raises(ConditionViolated) as info:
        assign_input_delay(sys, 1.0 + 2.0j)
    assert abs(abs(info.value.residual) - abs(1.0 + 2.0 / math.tan(2.0))) < 1e-12
    with pytest.raises(ConditionViolated):
        assign_input_delay(sys, -3.0)  # below a - 1/h


def test_mode_plant_compatibility():
    direct = PLANT
    delayed_input = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0, input_delay=True)
    with pytest.raises(DomainError):
        assign_input_delay(direct, -0.5)
    for fn in (assign_both, assign_delay_only, assign_current_only):
        with pytest.raises(DomainError):
            fn(delayed_input, -0.1 + 1.0j)
    with pytest.raises(DomainError):
        assign_real_both(delayed_input, -0.5)


def test_target_normalization():
    t = as_target(2.0 - 3.0j)
    assert t.S == 2.0 + 3.0j
    assert (t.u, t.v) == (2.0, 3.0)
    with pytest.raises(NonFiniteInput):
        as_target(complex(math.nan, 0.0))


plants = st.builds(
    SystemParams,
    a=st.floats(-3.0, 3.0),
    a1d=st.floats(-3.0, 3.0),
    b=st.floats(0.2, 3.0).flatmap(lambda m: st.sampled_from([m, -m])),
    h=st.floats(0.1, 5.0),
)
etas = st.floats(0.1, math.pi - 0.1)  # v*h inside the window
us = st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(sys=plants, u=us, eta=etas, sign=st.sampled_from([1.0, -1.0]))
def test_round_trip_and_certificates(sys, u, eta, sign):
    S = complex(u, sign * eta / sys.h)
    r = assign_both(sys, S)
    # gains are plain reals
    assert isinstance(r.gains.k, float) and isinstance(r.gains.k1d, float)
    # conjugate targets give identical designs
    assert assign_both(sys, S.conjugate()).gains == r.gains
    # target is an eigenvalue...
    assert abs(char_residual(r.closed_loop, r.predicted_rightmost)) <= 1e-12 * max(1.0, abs(S))
    # ...on the branch-0 boundary...
    assert on_w0_boundary((r.predicted_rightmost - r.closed_loop.alpha) * sys.h, 1e-9)
    # ...and the rightmost one
    rm = spectrum(r.closed_loop, 4).rightmost
    assert abs(rm - r.predicted_rightmost) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(sys=plants, u=us, eta=etas)
def test_round_trip_delay_only(sys, u, eta):
    v = eta / sys.h
    a = u + v * math.cos(eta) / math.sin(eta)
    if abs(a) > 1e8:
        return  # hopeless conditioning right at the window edge
    matched = SystemParams(a=a, a1d=sys.a1d, b=sys.b, h=sys.h)
    r = assign_delay_only(matched, complex(u, v))
    assert isinstance(r.gains.k1d, float)
    rm = spectrum(r.closed_loop, 4).rightmost
    assert abs(rm - complex(u, v)) <= 1e-9 * max(1.0, abs(a))


@settings(max_examples=100, deadline=None)
@given(sys=plants, S=st.floats(-4.0, 4.0), frac=st.floats(0.0, 1.0))
# found by Hypothesis: (S - alpha)*h = -0.9999875, error 1.14e-10, above a flat 1e-10
@example(sys=SystemParams(a=0.0, a1d=0.0, b=1.0, h=0.125), S=0.75, frac=0.99999)
def test_round_trip_real_both(sys, S, frac):
    # alpha anywhere in [S - 2, S + 1/h] is admissible
    alpha = (S + 1.0 / sys.h) * frac + (S - 2.0) * (1.0 - frac)
    _assert_real_round_trip(sys, S, alpha)


def test_round_trip_real_both_coalescence_band():
    # 1 + (S - alpha)h = 1.5e-6: the pair of real roots sits 3e-6 apart,
    # and the branch-0 one must land on S within the conditioning bound
    # of 7.4e-10, not on the branch point alpha - 1/h
    sys = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0)
    _assert_real_round_trip(sys, 0.0, 1.0 - 1.5e-6)


def _assert_real_round_trip(sys, S, alpha):
    r = assign_real_both(sys, S, alpha_choice=alpha)
    assert abs(spectrum(r.closed_loop, 4).rightmost - S) <= _real_round_trip_tol(r.closed_loop, S)


def _real_round_trip_tol(cl, S):
    """Bound on |rightmost - S| for a real design with W_0 = (S - alpha)*h.

    Doubles cannot hold z = beta*h*e^{-alpha h} exactly: four roundings
    (S - alpha, beta, beta*h, z) and two exp calls of at most 1 ulp each
    give 4 eps, and the exp arguments S*h and alpha*h round by eps/2 of
    their size (doubled here as margin for the W kernel's own error).
    A relative change d of z moves W_0 by d|W|/|1 + W| to first order,
    and by at most sqrt(2d) next to the branch point W = -1, where the
    first-order term blows up; the root moves by that over h.  Away
    from the branch point the plain 1e-10 gate applies.
    """
    h = cl.h
    w = (S - cl.alpha) * h
    d = EPS * (4.0 + abs(S * h) + abs(cl.alpha * h))
    moved = math.sqrt(2.0 * d)
    if abs(1.0 + w) * moved > d * abs(w):
        moved = d * abs(w) / abs(1.0 + w)
    return max(1e-10 * max(1.0, abs(S)), moved / h)


def test_feasibility_report_real_target():
    rep = feasibility_report(PLANT, -1.0)
    by_mode = {c.mode: c for c in rep.checks}
    assert by_mode[AssignmentMode.REAL_BOTH].feasible
    assert by_mode[AssignmentMode.REAL_BOTH].alpha_interval == (-math.inf, 0.0)
    assert not by_mode[AssignmentMode.DELAY_ONLY].feasible  # -1 < a - 1/h = 0
    assert by_mode[AssignmentMode.DELAY_ONLY].residual == pytest.approx(-1.0)
    assert not by_mode[AssignmentMode.CURRENT_ONLY].feasible
    assert not by_mode[AssignmentMode.BOTH_GAINS].applicable
    assert not by_mode[AssignmentMode.INPUT_DELAY].applicable


def test_feasibility_report_complex_target():
    rep = feasibility_report(PLANT, -0.092484 + 1.99730j, cond_tol=1e-4)
    by_mode = {c.mode: c for c in rep.checks}
    assert by_mode[AssignmentMode.BOTH_GAINS].feasible
    assert not by_mode[AssignmentMode.REAL_BOTH].applicable
    # window violation marks every complex mode infeasible
    rep = feasibility_report(PLANT, -0.5 + 5.0j)
    assert rep.feasible_modes() == ()


MODE_FUNCTIONS = {
    AssignmentMode.BOTH_GAINS: assign_both,
    AssignmentMode.DELAY_ONLY: assign_delay_only,
    AssignmentMode.CURRENT_ONLY: assign_current_only,
    AssignmentMode.REAL_BOTH: assign_real_both,
    AssignmentMode.INPUT_DELAY: assign_input_delay,
}


@pytest.mark.parametrize("plant", [PLANT, SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0, input_delay=True)],
                         ids=["direct", "input-delay"])
@pytest.mark.parametrize("S", [0.5, -0.5 + 1.5j], ids=["real", "complex"])
def test_feasibility_report_applicability_matches_functions(plant, S):
    # a mode is applicable exactly when its function raises no DomainError,
    # and a non-applicable row quotes that DomainError
    rep = feasibility_report(plant, S)
    assert [c.mode for c in rep.checks] == list(AssignmentMode)
    for check in rep.checks:
        try:
            res = MODE_FUNCTIONS[check.mode](plant, S)
        except DomainError as exc:
            assert (check.applicable, check.detail) == (False, str(exc))
        except (ConditionViolated, NotAssignableAsRightmost):
            assert check.applicable and not check.feasible
        else:
            assert check.applicable and res.mode == check.mode


def test_feasibility_report_input_delay():
    sys = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0, input_delay=True)
    rep = feasibility_report(sys, 0.0)
    by_mode = {c.mode: c for c in rep.checks}
    assert by_mode[AssignmentMode.INPUT_DELAY].applicable
    assert by_mode[AssignmentMode.INPUT_DELAY].feasible  # S = a >= a - 1/h
    assert not by_mode[AssignmentMode.BOTH_GAINS].applicable
