"""Acceptance checks: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import contextlib
import math
import time

import numpy as np

from conftest import SUITE_BUDGET_SECONDS, session_elapsed
from ybekit import checks
from ybekit.checks import braid_suite, reduction_suite, tl_suite, ybe_suite
from ybekit.entanglement import (
    GHZ_CLASS,
    W_CLASS,
    binary_entropy,
    entanglement_report,
)
from ybekit.landscape import (
    FUNCTIONS,
    LOCAL_MAX,
    LOCAL_MIN,
    SADDLE,
    find_critical_points,
)
from ybekit.tensor import norm_inf
from ybekit.threebody import (
    BETA_STAR,
    AngleTriple,
    ScatterParams,
    angles_to_params,
    product_form,
    state_coordinates,
)

from reference import (classify_slocc, closed_form, expm_series, ket, n_dot_lambda,
                       phi_from_theta, phi_from_three_thetas, scalar_random_triple,
                       three_tangle)

GHZ_PARAMS = ScatterParams(math.pi / 3, BETA_STAR)
W_PARAMS = ScatterParams(math.pi / 2, BETA_STAR)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_c01_ybe_residuals_randomized():
    with criterion(1, "YBE residuals over randomized admissible triples"):
        start = time.perf_counter()
        rows = ybe_suite(tol=1e-12, samples=1000, seed=12345)
        assert len(rows) == 4
        for row in rows:
            assert row.residual < 1e-12, row
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"YBE sweep took {elapsed:.2f}s"


def test_c02_algebra_suites():
    with criterion(2, "TL and braid relation suites with alpha-d consistency"):
        rows = tl_suite(tol=1e-12) + braid_suite(tol=1e-12)
        for row in rows:
            assert row.passed and row.residual < 1e-12, row
        assert all(r.tol == 1e-14 for r in rows if r.name.startswith("alpha-d"))


def test_c03_ghz_w_generation():
    with criterion(3, "GHZ/W generation with 3-tangle and class labels"):
        ghz_out = closed_form(GHZ_PARAMS) @ ket("000")
        expected = np.zeros(8)
        expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
        assert norm_inf(np.abs(ghz_out) - expected) < 1e-12
        assert abs(three_tangle(ghz_out) - 1.0) < 1e-9
        assert classify_slocc(ghz_out) == GHZ_CLASS
        ghz = entanglement_report(state_coordinates(GHZ_PARAMS.eta, GHZ_PARAMS.beta))
        assert abs(ghz.three_tangle - 1.0) < 1e-9 and ghz.slocc_class == GHZ_CLASS

        w_out = closed_form(W_PARAMS) @ ket("000")
        expected = np.zeros(8)
        expected[[0b011, 0b101, 0b110]] = 1.0 / math.sqrt(3.0)
        assert norm_inf(np.abs(w_out) - expected) < 1e-12
        assert three_tangle(w_out) < 1e-9
        assert classify_slocc(w_out) == W_CLASS
        w = entanglement_report(state_coordinates(W_PARAMS.eta, W_PARAMS.beta))
        assert w.three_tangle < 1e-9 and w.slocc_class == W_CLASS


def _nearest(points, kind, location):
    return min((p for p in points if p.kind == kind),
               key=lambda p: sum((a - b) ** 2 for a, b in zip(p.location, location)))


def test_c04_l1_landscape_extrema():
    with criterion(4, "l1 landscape: GHZ maximum and kinked W saddle"):
        points = find_critical_points("l1_S3", FUNCTIONS["l1_S3"].chart.domain)
        maxima = [p for p in points if p.kind == LOCAL_MAX]
        assert len(maxima) == 8 and all(abs(p.value - 2.0) < 1e-15 for p in maxima)
        assert max(p.value for p in points) == max(p.value for p in maxima)

        ghz = _nearest(points, LOCAL_MAX, (math.pi / 3, BETA_STAR))
        assert abs(ghz.location[0] - math.pi / 3) < 1e-15
        assert abs(ghz.location[1] - BETA_STAR) < 1e-15
        assert ghz.smooth

        w = _nearest(points, SADDLE, (math.pi / 2, BETA_STAR))
        assert abs(w.location[0] - math.pi / 2) < 1e-15
        assert abs(w.location[1] - BETA_STAR) < 1e-15
        assert abs(w.value - math.sqrt(3.0)) < 1e-15
        assert not w.smooth, "the W saddle's kink is not flagged"


def test_c05_l1_invariance_between_forms():
    with criterion(5, "l1 equality of 8x8 and fusion-space forms on a grid"):
        etas = np.linspace(0.0, 2 * math.pi, 100)
        betas = np.linspace(-math.pi / 2, math.pi / 2, 100)
        worst = 0.0
        for eta in etas:
            for beta in betas:
                l1_s3, l1_sprime = (FUNCTIONS[tag](float(eta), float(beta))
                                    for tag in ("l1_S3", "l1_Sprime"))
                worst = max(worst, abs(l1_s3 - l1_sprime))
        assert worst < 1e-13, f"worst difference {worst:.3e}"


def test_c06_entropy_curve():
    with criterion(6, "fusion-space entropy curve along beta = arccot(sqrt 2)"):
        assert abs(FUNCTIONS["vn_Sprime"](math.pi / 3, BETA_STAR) - 1.0) < 1e-9
        expected_min = math.log2(3.0) - 2.0 / 3.0
        assert abs(FUNCTIONS["vn_Sprime"](math.pi / 2, BETA_STAR) - expected_min) < 1e-9
        for eta in np.linspace(0.0, 2 * math.pi, 1000):
            model = binary_entropy(1.0 / 3.0 + (2.0 / 3.0) * math.cos(eta) ** 2)
            assert abs(FUNCTIONS["vn_Sprime"](float(eta), BETA_STAR) - model) < 1e-12
        # max/min classification along the section: probes either side
        for eta, kind in ((math.pi / 3, "max"), (math.pi / 2, "min")):
            center = FUNCTIONS["vn_Sprime"](eta, BETA_STAR)
            sides = [FUNCTIONS["vn_Sprime"](eta + h, BETA_STAR) for h in (-1e-5, 1e-5)]
            assert all((s < center) if kind == "max" else (s > center) for s in sides)


def test_c07_two_qubit_figure_peaks():
    with criterion(7, "two-qubit l1 and entropy peak together at pi/4"):
        for tag, peak in (("l1_wigner", math.sqrt(2.0)), ("vn_xi", 1.0)):
            points = find_critical_points(tag, FUNCTIONS[tag].chart.domain)
            assert [p.kind for p in points] == [LOCAL_MIN, LOCAL_MAX, LOCAL_MIN]
            assert abs(points[1].location[0] - math.pi / 4) < 1e-15
            assert abs(points[1].value - peak) < 1e-15


def test_c08_phase_constraint_formulas():
    with criterion(8, "phase-angle constraint formulas"):
        assert abs(phi_from_theta(math.pi / 4) - math.pi / 2) < 1e-12
        assert abs(phi_from_theta(math.pi / 2) - 2 * math.pi / 3) < 1e-12
        rng = np.random.default_rng(77)
        for _ in range(200):
            t1, t3 = rng.uniform(0.1, 1.4, size=2)
            galilean_mid = math.atan(math.tan(t1) + math.tan(t3))
            assert abs(phi_from_three_thetas(t1, galilean_mid, t3) - 2 * math.pi / 3) < 1e-10
            lorentz_mid = math.atan2(math.sin(t1 + t3), math.cos(t1 - t3))
            assert abs(phi_from_three_thetas(t1, lorentz_mid, t3) - math.pi / 2) < 1e-10


def test_c09_topological_reduction():
    with criterion(9, "fusion-basis reductions and the three-body cross-check"):
        for row in reduction_suite(tol=1e-12):
            assert row.passed, row
        assert checks.worst(checks.random_reduction(100, 31)) <= 1e-10


def test_c10_cross_form_equality():
    with criterion(10, "closed form vs factorized product and series oracle"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            triple = AngleTriple(*scalar_random_triple(rng))
            closed = closed_form(angles_to_params(triple))
            worst = max(worst, norm_inf(product_form(triple) - closed))
        assert worst < 1e-11, f"worst cross-form difference {worst:.3e}"

        worst = 0.0
        for _ in range(200):
            eta = rng.uniform(-2 * math.pi, 2 * math.pi)
            beta = rng.uniform(-math.pi, math.pi)
            closed = closed_form(ScatterParams(eta, beta))
            series = expm_series(-eta * n_dot_lambda(beta))
            worst = max(worst, norm_inf(closed - series))
        assert worst < 1e-12, f"worst series-oracle difference {worst:.3e}"


def test_c11_time_budget():
    with criterion(11, "suite time budget"):
        elapsed = session_elapsed()
        assert elapsed < SUITE_BUDGET_SECONDS, f"suite already at {elapsed:.1f}s"
