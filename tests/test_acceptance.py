"""End-to-end acceptance gate.

Four checks, one test each: randomized assignment round trips, Lambert
W conformance bounds, oracle cross-validation on random loops, and
infeasible-target rejection.  The reference gain designs, reference
spectra and simulation confirmation are checked in test_assign.py,
test_spectrum.py and test_sim.py.  Each test asserts its stated
tolerance and runtime budget and prints a single summary line (visible
under ``pytest -s``).

The randomized checks draw the seeded recipes of recipes.py, so the gate
is deterministic; a last test keeps every seeded stream there.
"""

import ast
import cmath
import math
import time
from pathlib import Path

import pytest

from delayw import NotAssignableAsRightmost, assign_both, cross_validate, lambert_w, lambert_w_real, spectrum

from recipes import (infeasible_targets, lambert_w_conformance, oracle_equivalence_loops, real_identity_sample,
                     round_trip_designs)


def test_acceptance_3_round_trip_assignment():
    t0 = time.perf_counter()
    worst = 0.0
    n_done = 0
    for fn, sys, S in round_trip_designs():
        got = spectrum(fn(sys, S).closed_loop, 2).rightmost
        err = abs(got - S)
        worst = max(worst, err)
        assert err <= 1e-10, (S, got, fn, sys)
        n_done += 1

    elapsed = time.perf_counter() - t0
    assert n_done == 500
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: 500 feasible round trips, rightmost within "
          f"1e-10 (worst {worst:.2e}), {elapsed:.2f}s")


def test_acceptance_4_lambert_w_conformance():
    worst_res = 0.0
    worst_conj = 0.0
    for k, z in lambert_w_conformance():
        w = lambert_w(k, z).w
        res = abs(w * cmath.exp(w) - z)
        worst_res = max(worst_res, res / max(1.0, abs(z)))
        assert res <= 1e-13 * max(1.0, abs(z)), (k, z, res)
        wc = lambert_w(-k, z.conjugate()).w
        dc = abs(wc - w.conjugate())
        worst_conj = max(worst_conj, dc)
        assert dc <= 1e-13, (k, z, dc)

    worst_id = 0.0
    for x in real_identity_sample():
        err = abs(lambert_w_real(0, x * math.exp(x)) - x)
        worst_id = max(worst_id, err)
        assert err <= 1e-13, (x, err)
    print(f"ACCEPTANCE 4 PASS: 1e4 (k, z) residual <= 1e-13*max(1,|z|) "
          f"(worst {worst_res:.2e}), conjugate symmetry <= 1e-13 "
          f"(worst {worst_conj:.2e}), 1e3 real identities within 1e-13 "
          f"(worst {worst_id:.2e})")


def test_acceptance_5_oracle_equivalence():
    # the double-root case is TestCrossValidate.test_double_root_case
    t0 = time.perf_counter()
    worst = 0.0
    for cl in oracle_equivalence_loops():
        cv = cross_validate(cl, 3)
        assert cv.spectrum_count == cv.oracle_count, cl
        worst = max(worst, cv.max_distance)
        assert cv.max_distance <= 1e-8, (cl, cv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 PASS: oracle agrees on 200 randomized systems "
          f"(worst distance {worst:.2e}), {elapsed:.2f}s")


def test_acceptance_7_infeasible_target_rejection():
    # the targets keep clear of the poles of cot(v*h), so that the
    # would-be loop stays representable
    n_done = 0
    min_gap = math.inf
    for sys, S in infeasible_targets():
        with pytest.raises(NotAssignableAsRightmost) as exc_info:
            assign_both(sys, S)
        exc = exc_info.value
        assert exc.window == (0.0, math.pi / sys.h)
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



def test_recipes_have_one_home():
    # no test module but recipes.py constructs random.Random, however it
    # reaches the class
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        if path.name != "recipes.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                called = getattr(node, "func", None)
                assert not (isinstance(node, ast.Call) and "Random" in (getattr(called, "attr", None),
                                                                        getattr(called, "id", None))), \
                    (path.name, node.lineno)
