"""End-to-end acceptance gate.

Seven checks, one test each, covering: reference gain designs, reference
spectra, randomized assignment round trips, Lambert W conformance bounds,
oracle cross-validation, simulation confirmation, and infeasible-target
rejection.  Each test asserts its stated tolerance and runtime budget and
prints a single summary line (visible under ``pytest -s``).

Randomized checks use fixed seeds so the gate is deterministic.
"""

import cmath
import math
import random
import time

import pytest

from delayw import (
    ClosedLoopParams,
    ConstantHistory,
    InitialData,
    NotAssignableAsRightmost,
    SystemParams,
    assign_both,
    assign_current_only,
    assign_delay_only,
    assign_real_both,
    cross_validate,
    estimate_dominant_eig_detailed,
    lambert_w,
    lambert_w_real,
    simulate,
    spectrum,
)

PLANT = SystemParams(a=1.0, a1d=-1.0, b=1.0, h=1.0)

# reference designs for PLANT: target -> exact gains (k, k1d)
REFERENCE_GAINS = [
    (complex(-0.092484, 1.9973), (-2.0, -1.0)),
    (complex(-0.60502, 1.7882), (-2.0, 0.0)),
    (-1.0, (-2.0, 1.0)),
]

# reference spectra, h = 1, printed to 6 significant figures; each entry
# is (re, im, multiplicity) and im != 0 implies the conjugate is present
REFERENCE_SPECTRA = [
    (
        ClosedLoopParams(alpha=1.0, beta=-1.0, h=1.0),
        [
            (0.0, 0.0, 2),
            (-2.08880, 7.46150, 1),
            (-2.66407, 13.8791, 1),
            (-3.02630, 20.2238, 1),
        ],
    ),
    (
        ClosedLoopParams(alpha=-1.0, beta=-2.0, h=1.0),
        [
            (-0.092484, 1.99730, 1),
            (-1.36300, 7.80750, 1),
            (-1.95315, 14.0695, 1),
            (-2.32231, 20.3555, 1),
        ],
    ),
    (
        ClosedLoopParams(alpha=-1.0, beta=-1.0, h=1.0),
        [
            (-0.60502, 1.78820, 1),
            (-2.05280, 7.71840, 1),
            (-2.64736, 14.0202, 1),
            (-3.01658, 20.3214, 1),
        ],
    ),
]


def _expand_conjugates(rows):
    """[(re, im, mult)] -> full root list with conjugates spelled out."""
    full = []
    for re, im, mult in rows:
        full.append((re, im, mult))
        if im != 0.0:
            full.append((re, -im, mult))
    return full


def test_acceptance_1_reference_gain_designs():
    t0 = time.perf_counter()
    worst = 0.0
    for target, (k_ref, k1d_ref) in REFERENCE_GAINS:
        if isinstance(target, complex):
            r = assign_both(PLANT, target)
        else:
            r = assign_real_both(PLANT, target)
        worst = max(worst, abs(r.gains.k - k_ref), abs(r.gains.k1d - k1d_ref))
        assert abs(r.gains.k - k_ref) <= 1e-4, (target, r.gains)
        assert abs(r.gains.k1d - k1d_ref) <= 1e-4, (target, r.gains)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: 3 gain designs within 1e-4 "
          f"(worst {worst:.2e}), {elapsed:.3f}s")


def test_acceptance_2_reference_spectra():
    t0 = time.perf_counter()
    worst = 0.0
    for cl, rows in REFERENCE_SPECTRA:
        expected = _expand_conjugates(rows)
        sp = spectrum(cl, 3)
        assert len(sp.roots) == len(expected), (cl, len(sp.roots))
        for re, im, mult in expected:
            best = min(sp.roots,
                       key=lambda r: max(abs(r.s.real - re), abs(r.s.imag - im)))
            err = max(abs(best.s.real - re), abs(best.s.imag - im))
            worst = max(worst, err)
            assert err <= 5e-4, (cl, (re, im), best.s)
            assert best.multiplicity == mult, (cl, (re, im), best)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: 3 spectra, every root within 5e-4 per "
          f"component (worst {worst:.2e}), {elapsed:.3f}s")


def test_acceptance_3_round_trip_assignment():
    t0 = time.perf_counter()
    rng = random.Random(42)
    worst = 0.0
    n_done = 0

    def check(result, target):
        nonlocal worst, n_done
        got = spectrum(result.closed_loop, 2).rightmost
        err = abs(got - target)
        worst = max(worst, err)
        assert err <= 1e-10, (target, got, result)
        n_done += 1

    def draw_plant():
        return SystemParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0),
                            rng.uniform(0.1, 5.0))

    # complex targets, both gains free: feasible iff 0 < v*h < pi
    for _ in range(250):
        sys = draw_plant()
        S = complex(rng.uniform(-5.0, 5.0),
                    rng.uniform(0.05, math.pi - 0.05) / sys.h)
        check(assign_both(sys, S), S)

    # real targets, both gains free
    for _ in range(125):
        sys = draw_plant()
        S = complex(rng.uniform(-5.0, 5.0), 0.0)
        check(assign_real_both(sys, S.real), S)

    # single-gain modes reach only a one-parameter family of targets, so
    # build a feasible pair by closing a random loop and aiming at its
    # actual rightmost root
    made = 0
    while made < 125:
        sys = draw_plant()
        if made % 2 == 0:
            cl = ClosedLoopParams(sys.a, sys.a1d + sys.b * rng.uniform(-3.0, 3.0),
                                  sys.h)
            fn = assign_delay_only
        else:
            cl = ClosedLoopParams(sys.a + sys.b * rng.uniform(-3.0, 3.0),
                                  sys.a1d, sys.h)
            fn = assign_current_only
        # need an oscillatory rightmost pair, clear of the coalescence
        z = cl.beta * cl.h * math.exp(-cl.alpha * cl.h)
        if z >= -math.exp(-1.0) * 1.001:
            continue
        S = spectrum(cl, 1).rightmost
        if S.imag <= 1e-6:
            continue
        check(fn(sys, S), S)
        made += 1

    elapsed = time.perf_counter() - t0
    assert n_done == 500
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: 500 feasible round trips, rightmost within "
          f"1e-10 (worst {worst:.2e}), {elapsed:.2f}s")


def test_acceptance_4_lambert_w_conformance():
    rng = random.Random(9)
    worst_res = 0.0
    worst_conj = 0.0
    checked = 0
    while checked < 10_000:
        k = rng.randint(-50, 50)
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if z == 0 or z.imag == 0.0:
            continue
        w = lambert_w(k, z).w
        res = abs(w * cmath.exp(w) - z)
        worst_res = max(worst_res, res / max(1.0, abs(z)))
        assert res <= 1e-13 * max(1.0, abs(z)), (k, z, res)
        wc = lambert_w(-k, z.conjugate()).w
        dc = abs(wc - w.conjugate())
        worst_conj = max(worst_conj, dc)
        assert dc <= 1e-13, (k, z, dc)
        checked += 1

    rng = random.Random(0)
    worst_id = 0.0
    for _ in range(1_000):
        x = rng.uniform(-1.0, 10.0)
        err = abs(lambert_w_real(0, x * math.exp(x)) - x)
        worst_id = max(worst_id, err)
        assert err <= 1e-13, (x, err)
    print(f"ACCEPTANCE 4 PASS: 1e4 (k, z) residual <= 1e-13*max(1,|z|) "
          f"(worst {worst_res:.2e}), conjugate symmetry <= 1e-13 "
          f"(worst {worst_conj:.2e}), 1e3 real identities within 1e-13 "
          f"(worst {worst_id:.2e})")


def test_acceptance_5_oracle_equivalence():
    t0 = time.perf_counter()

    # pinned case with a multiplicity-2 root at the origin
    cl0 = ClosedLoopParams(alpha=1.0, beta=-1.0, h=1.0)
    cv0 = cross_validate(cl0, 3)
    assert cv0.spectrum_count == cv0.oracle_count == 8
    assert cv0.max_distance <= 1e-8
    double = [r for r in spectrum(cl0, 3).roots if abs(r.s) < 1e-9]
    assert len(double) == 1 and double[0].multiplicity == 2

    rng = random.Random(5)
    worst = 0.0
    for _ in range(200):
        cl = ClosedLoopParams(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                              rng.uniform(0.2, 3.0))
        cv = cross_validate(cl, 3)
        assert cv.spectrum_count == cv.oracle_count, cl
        worst = max(worst, cv.max_distance)
        assert cv.max_distance <= 1e-8, (cl, cv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 PASS: oracle agrees on 200 randomized systems plus "
          f"the double-root case (worst distance {worst:.2e}), {elapsed:.2f}s")


def test_acceptance_6_simulation_confirmation():
    t0 = time.perf_counter()
    init = InitialData(1.0, ConstantHistory(1.0))

    # oscillatory assigned loop: alpha = -1, beta = -2, h = 1
    r = assign_both(PLANT, complex(-0.092484, 1.9973))
    assert r.closed_loop.alpha == pytest.approx(-1.0, abs=1e-4)
    assert r.closed_loop.beta == pytest.approx(-2.0, abs=1e-4)
    traj = simulate(r.closed_loop, init, 40.0)
    est = estimate_dominant_eig_detailed(traj).value
    target = complex(-0.092484, 1.9973)
    rel = abs(est - target) / abs(target)
    assert rel <= 1e-2, (est, rel)

    # delay-free assigned loop: beta = 0, pure decay at -1
    r0 = assign_real_both(PLANT, -1.0)
    assert r0.closed_loop.beta == 0.0
    traj0 = simulate(r0.closed_loop, init, 25.0)
    est0 = estimate_dominant_eig_detailed(traj0).value
    assert est0.imag == 0.0
    assert abs(est0.real - (-1.0)) <= 1e-3, est0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 6 PASS: oscillatory estimate within 1e-2 relative "
          f"({rel:.2e}), delay-free rate -1 within 1e-3 "
          f"({abs(est0.real + 1.0):.2e}), {elapsed:.2f}s")


def test_acceptance_7_infeasible_target_rejection():
    rng = random.Random(21)
    n_done = 0
    min_gap = math.inf
    while n_done < 100:
        h = rng.uniform(0.3, 2.0)
        vh = rng.uniform(math.pi, 15.0)
        # keep clear of the poles of cot(v*h) so the would-be loop stays
        # representable
        if min(abs(vh - m * math.pi) for m in range(1, 6)) < 0.1:
            continue
        S = complex(rng.uniform(-2.0, 2.0), vh / h)
        sys = SystemParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                           rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), h)
        with pytest.raises(NotAssignableAsRightmost) as exc_info:
            assign_both(sys, S)
        exc = exc_info.value
        assert exc.window == (0.0, math.pi / h)
        # the would-be design puts the target on some branch, but a more
        # dominant root always lands strictly to its right
        rightmost = spectrum(exc.closed_loop, 1).rightmost
        gap = rightmost.real - S.real
        assert gap > 0.0, (S, sys, rightmost)
        min_gap = min(min_gap, gap)
        n_done += 1
    print(f"ACCEPTANCE 7 PASS: 100 targets with v*h >= pi rejected, would-be "
          f"loop always has a root strictly right of the target "
          f"(min gap {min_gap:.2e})")
