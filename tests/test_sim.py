"""Tests for the method-of-steps integrator and eigenvalue estimator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from delayw import (
    ClosedLoopParams,
    DomainError,
    Gains,
    InsufficientData,
    InvalidStep,
    NonFiniteInput,
    SystemParams,
    assign_both,
    close_loop,
    spectrum,
)
from delayw.sim import (
    ConstantHistory,
    EigEstimate,
    InitialData,
    LinearHistory,
    SampledHistory,
    TAIL_FRACTION,
    Trajectory,
    estimate_dominant_eig_detailed,
    simulate,
)

UNIT = InitialData(1.0, ConstantHistory(1.0))


def rk4_method_of_steps(cl, init, t_final, step):
    """Stage-by-stage RK4 with cubic Hermite dense output: the reference
    for simulate's folded one-line recurrence.  Returns (values, truncated)."""
    alpha, beta, h, phi = cl.alpha, cl.beta, cl.h, init.phi
    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)
    xs = [init.x0]
    fs = [alpha * init.x0 + beta * phi(-h)]

    def node_delayed(j):
        return xs[j - n_per] if j >= n_per else phi(j * dt - h)

    def mid_delayed(j):
        jj = j - n_per
        if jj < 0:
            return phi((j + 0.5) * dt - h)
        return 0.5 * (xs[jj] + xs[jj + 1]) + 0.125 * dt * (fs[jj] - fs[jj + 1])

    for i in range(total):
        x, d_mid, d_end = xs[i], mid_delayed(i), node_delayed(i + 1)
        k1 = fs[i]
        k2 = alpha * (x + 0.5 * dt * k1) + beta * d_mid
        k3 = alpha * (x + 0.5 * dt * k2) + beta * d_mid
        k4 = alpha * (x + dt * k3) + beta * d_end
        x_next = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(x_next) or abs(x_next) > 1e300:
            return xs, True
        xs.append(x_next)
        fs.append(alpha * x_next + beta * d_end)
    return xs, False


class TestHistories:
    def test_constant(self):
        phi = ConstantHistory(2.5)
        assert phi(-1.0) == phi(-0.001) == 2.5
        with pytest.raises(NonFiniteInput):
            ConstantHistory(math.nan)

    def test_linear(self):
        phi = LinearHistory(1.0, 2.0)
        assert phi(-0.5) == 0.0
        assert phi(0.0) == 1.0
        for c0, c1 in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(NonFiniteInput):
                LinearHistory(c0, c1)

    def test_sampled_interpolates(self):
        phi = SampledHistory(((-1.0, 0.0), (-0.5, 1.0), (-0.25, 1.0)))
        assert phi(-0.75) == pytest.approx(0.5)
        assert phi(-1.0) == 0.0
        # edge hold outside the stamped range
        assert phi(-2.0) == 0.0
        assert phi(-0.1) == 1.0

    def test_sampled_validation(self):
        with pytest.raises(DomainError):
            SampledHistory(((-1.0, 0.0),))
        with pytest.raises(DomainError):
            SampledHistory(((-0.5, 0.0), (-1.0, 1.0)))
        with pytest.raises(DomainError):
            SampledHistory(((-1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(NonFiniteInput):
            SampledHistory(((-1.0, math.inf), (-0.5, 0.0)))
        with pytest.raises(NonFiniteInput):
            SampledHistory(((-1.0, 0.0), (math.nan, 1.0), (-0.5, 0.0)))

    def test_sampled_span_checked_at_simulate(self):
        cl = ClosedLoopParams(-1.0, -0.5, 1.0)
        short = InitialData(1.0, SampledHistory(((-0.4, 1.0), (-0.2, 1.0))))
        with pytest.raises(DomainError):
            simulate(cl, short, 3.0, 0.01)

    def test_initial_data_validation(self):
        with pytest.raises(NonFiniteInput):
            InitialData(math.inf, ConstantHistory(0.0))
        with pytest.raises(DomainError):
            InitialData(0.0, "not callable")


class TestSimulate:
    def test_delay_free_exponential(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 5.0, 1e-3)
        err = max(abs(x - math.exp(-t)) for t, x in zip(traj.times, traj.values))
        assert err <= 1e-8

    def test_constant_solution(self):
        # x' = x(t) - x(t-h) with flat unit history stays at 1
        traj = simulate(ClosedLoopParams(1.0, -1.0, 1.0), UNIT, 10.0, 0.01)
        assert max(abs(x - 1.0) for x in traj.values) == 0.0

    def test_fourth_order_convergence(self):
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        ref = simulate(cl, UNIT, 6.0, 1.0 / 4096.0)
        ref_at = dict(zip((round(t, 12) for t in ref.times), ref.values))
        errs = []
        for k in (16, 32, 64):
            tr = simulate(cl, UNIT, 6.0, 1.0 / k)
            errs.append(max(abs(x - ref_at[round(t, 12)])
                            for t, x in zip(tr.times, tr.values)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_step_snaps_to_delay(self):
        # 0.3 does not divide 1: snapped down to 1/4
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 2.0, 0.3)
        assert traj.step == 0.25
        assert traj.times[-1] == pytest.approx(2.0)

    def test_uniform_grid_from_zero(self):
        traj = simulate(ClosedLoopParams(-1.0, -0.5, 0.7), UNIT, 3.0, 0.01)
        assert traj.times[0] == 0.0
        diffs = {round(t1 - t0, 15) for t0, t1 in zip(traj.times, traj.times[1:])}
        assert len(diffs) == 1

    def test_invalid_step(self):
        cl = ClosedLoopParams(-1.0, 0.0, 1.0)
        for bad in (0.0, -0.1, math.nan, math.inf, True):
            with pytest.raises(InvalidStep):
                simulate(cl, UNIT, 5.0, bad)
        with pytest.raises(InvalidStep):
            simulate(cl, UNIT, 0.5)  # below one delay interval
        with pytest.raises(InvalidStep):
            simulate(cl, UNIT, math.inf)

    @pytest.mark.parametrize("cl, init, t_final, step", [
        (ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 6.0, 0.01),
        (ClosedLoopParams(-0.5, -1.0, 0.7), InitialData(0.3, LinearHistory(1.0, -2.0)), 5.0, 0.003),
        (ClosedLoopParams(0.4, -1.5, 1.3),
         InitialData(-0.2, SampledHistory(((-1.3, 0.5), (-0.9, -1.0), (-0.2, 0.25)))), 9.0, 0.013),
        # t_final == h: the history phase alone
        (ClosedLoopParams(-1.0, -2.0, 0.7), InitialData(1.0, LinearHistory(0.5, 1.0)), 0.7, 0.01),
        # step >= h: one step per delay, whose delayed end node is x0
        (ClosedLoopParams(-0.3, -0.4, 1.0), InitialData(2.0, LinearHistory(-1.0, 3.0)), 30.0, 2.0),
        # overflow in the stored phase and in the history phase
        (ClosedLoopParams(2.0, 0.5, 1.0), UNIT, 400.0, 0.01),
        (ClosedLoopParams(800.0, 1.0, 1.0), UNIT, 2.0, 0.01),
    ])
    def test_matches_stagewise_rk4(self, cl, init, t_final, step):
        traj = simulate(cl, init, t_final, step)
        ref, truncated = rk4_method_of_steps(cl, init, t_final, step)
        assert len(traj.values) == len(ref)
        assert traj.truncated == truncated
        scale = max(abs(x) for x in ref)
        assert max(abs(x - y) for x, y in zip(traj.values, ref)) <= 1e-11 * scale

    def test_overflow_truncates_with_flag(self):
        traj = simulate(ClosedLoopParams(2.0, 0.5, 1.0), UNIT, 400.0, 0.01)
        assert traj.truncated
        assert traj.times[-1] < 400.0
        assert all(math.isfinite(x) for x in traj.values)
        assert abs(traj.values[-1]) <= 1e300

    def test_history_actually_consulted(self):
        # same loop, different history slope: trajectories must differ
        cl = ClosedLoopParams(-0.5, -1.0, 1.0)
        flat = simulate(cl, InitialData(1.0, ConstantHistory(1.0)), 3.0, 0.01)
        sloped = simulate(cl, InitialData(1.0, LinearHistory(1.0, 1.0)), 3.0, 0.01)
        assert flat.values[0] == sloped.values[0] == 1.0
        assert max(abs(a - b) for a, b in zip(flat.values, sloped.values)) > 1e-3

    def test_csv_contract(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 1.0, 0.5)
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == len(traj.times) + 1
        t, x = lines[2].split(",")
        assert float(t) == traj.times[1]
        assert float(x) == traj.values[1]

    def test_trajectory_invariants(self):
        with pytest.raises(DomainError):
            Trajectory(times=(0.0, 0.1), values=(1.0,), step=0.1)
        with pytest.raises(DomainError):
            Trajectory(times=(0.5, 0.6), values=(1.0, 1.0), step=0.1)


class TestEstimate:
    def test_monotone_decay(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 25.0, 1e-3)
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "monotone"
        assert est.value.imag == 0.0
        assert abs(est.value.real + 1.0) <= 1e-3

    def test_oscillatory(self):
        traj = simulate(ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj)
        ref = complex(-0.092484, 1.99730)
        assert est.kind == "oscillatory"
        assert est.n_crossings >= 10
        assert abs(est.value - ref) <= 1e-2 * abs(ref)

    def test_constant(self):
        traj = simulate(ClosedLoopParams(1.0, -1.0, 1.0), UNIT, 10.0, 0.01)
        est = estimate_dominant_eig_detailed(traj)
        assert est.value == 0j
        assert est.kind == "constant"

    def test_scale_invariant(self):
        # the same loop started 1e-15 smaller: the fit must not read the
        # tiny tail as constant
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        unit = estimate_dominant_eig_detailed(simulate(cl, UNIT, 40.0))
        tiny = estimate_dominant_eig_detailed(
            simulate(cl, InitialData(1e-15, ConstantHistory(1e-15)), 40.0))
        assert unit.kind == tiny.kind == "oscillatory"
        assert abs(unit.value - tiny.value) <= 1e-9 * abs(unit.value)

    def test_decayed_tail(self):
        # a fast-decaying loop whose tail peaks near 2e-20
        plant = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0)
        cl = assign_both(plant, complex(-1.5, 2.5)).closed_loop
        traj = simulate(cl, UNIT, 60.0)
        assert max(abs(x) for x in traj.values[len(traj.values) // 2:]) < 1e-19
        rm = spectrum(cl, 0).rightmost
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "oscillatory"
        assert abs(est.value - rm) <= 1e-2 * abs(rm)

    def test_growth_rate(self):
        cl = ClosedLoopParams(0.1, -2.0, 1.0)
        rm = spectrum(cl, 0).rightmost
        traj = simulate(cl, UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj).value
        assert abs(est - rm) <= 1e-2 * abs(rm)

    def test_insufficient_tail(self):
        traj = Trajectory(times=tuple(i * 0.1 for i in range(10)),
                          values=tuple(1.0 for _ in range(10)), step=0.1)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(traj)

    def test_zero_tail(self):
        # zero initial data excites no mode: there is no root to read off,
        # least of all the constant mode at 0
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        traj = simulate(cl, InitialData(0.0, ConstantHistory(0.0)), 10.0)
        assert set(traj.values) == {0.0}
        with pytest.raises(InsufficientData, match="identically zero"):
            estimate_dominant_eig_detailed(traj)

    def test_too_few_efoldings(self):
        # slow decay observed over a short window
        traj = simulate(ClosedLoopParams(-0.05, 0.0, 1.0), UNIT, 20.0, 0.01)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(traj)

    def test_too_few_crossings(self):
        # about one period in the tail: crossings present but far short of 10
        ts = tuple(i * 0.01 for i in range(2000))
        vals = tuple(math.sin(0.5 * t) for t in ts)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(Trajectory(times=ts, values=vals, step=0.01))

    def test_tail_fraction_validation(self):
        assert 0.0 < TAIL_FRACTION <= 1.0
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 25.0, 0.01)
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "monotone"
        assert abs(est.value.real + 1.0) <= 1e-3
        # only the last TAIL_FRACTION of the samples is fitted: the head
        # can hold anything, a change inside the tail moves the estimate
        n = len(traj.values)
        start = n - math.ceil(n * TAIL_FRACTION)
        head = tuple(float((-1) ** i) * 1e6 for i in range(start))
        garbled = Trajectory(times=traj.times, values=head + traj.values[start:],
                             step=traj.step)
        assert estimate_dominant_eig_detailed(garbled) == est
        bent = list(traj.values)
        bent[start] *= 2.0
        bent = Trajectory(times=traj.times, values=tuple(bent), step=traj.step)
        assert estimate_dominant_eig_detailed(bent) != est

    def test_estimate_matches_detailed(self):
        # the record is the whole result: a complex value, the same on
        # every call
        traj = simulate(ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj)
        assert isinstance(est, EigEstimate)
        assert isinstance(est.value, complex)
        assert est == estimate_dominant_eig_detailed(traj)


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(min_value=-0.15, max_value=0.2),
    v=st.floats(min_value=1.0, max_value=3.0),
    h=st.floats(min_value=0.5, max_value=1.8),
)
def test_estimate_recovers_assigned_root(u, v, h):
    if not (0.05 < v * h < 3.0):
        return
    plant = SystemParams(a=0.0, a1d=0.0, b=1.0, h=h)
    r = assign_both(plant, complex(u, v))
    t_final = max(6.0 * h, 20.0 * math.pi / v)
    traj = simulate(r.closed_loop, UNIT, t_final, h / 300.0)
    est = estimate_dominant_eig_detailed(traj).value
    S = complex(u, v)
    assert abs(est - S) <= 1e-2 * abs(S)


def test_assigned_loop_gains_close_to_design():
    # closing the loop through the gains reproduces the design
    # coefficients to rounding in the plant's scale
    plant = SystemParams(a=1.0, a1d=-1.0, b=1.0, h=1.0)
    r = assign_both(plant, complex(-0.092484, 1.9973))
    applied = close_loop(plant, r.gains)
    assert applied.alpha == pytest.approx(r.closed_loop.alpha, abs=1e-12)
    assert applied.beta == pytest.approx(r.closed_loop.beta, abs=1e-12)
    traj = simulate(applied, UNIT, 40.0)
    est = estimate_dominant_eig_detailed(traj).value
    assert abs(est - complex(-0.092484, 1.9973)) <= 1e-2 * abs(complex(-0.092484, 1.9973))
