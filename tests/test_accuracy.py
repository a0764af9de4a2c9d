"""Accuracy budgets against mpmath at 40 digits.

The program computes each quantity from float inputs, and mpmath evaluates
the same closed form on the same inputs, taken as exact binary numbers.
A budget bounds the error in ulps of the true value, or in eps = 2^-52
absolute for a quantity that passes through zero; each is at least the
largest error measured on these seeded points (README lists the budgets).
The points lie on the default domains, and 1e-12 to 1e-1 from the strata
where an entropy vanishes: sin(eta) = 0, (eta, beta) = (pi/2, pi/2), and
cos(theta) or sin(theta) = 0.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from mpmath import atan2, cos, log, log1p, mpc, mpf, pi, sin, sqrt

from ybekit.entanglement import binary_entropy, entanglement_report
from ybekit.landscape import get_function
from ybekit.threebody import (RANDOM_SPAN, ScatterParams, angles_to_params, constrained_triple,
                              state_coordinates, state_from_params)

from reference import hyperdeterminant

mpmath.mp.dps = 40
RNG = np.random.default_rng(2024)


def near(centers, n):
    """``n`` points 1e-12 to 1e-1 to either side of each of ``centers``."""
    offsets = 10.0 ** RNG.uniform(-12.0, -1.0, (len(centers), n))
    return (np.asarray(centers)[:, None] + RNG.choice([-1.0, 1.0], offsets.shape) * offsets).ravel()


def entropy(p):
    """H(p) in bits of the smaller probability p: log1p keeps the digits
    that 1 - p at 40 digits rounds away below p = 1e-40."""
    return -(p * log(p) + (1 - p) * log1p(-p)) / log(2) if p else p


@functools.cache  # three budgets read each triple
def angle_map(t1, t2, t3):
    delta, sigma = mpf(t1) - t3, mpf(t1) + t3
    scale = sqrt(1 + cos(delta) ** 2)
    return (atan2(sin(sigma), cos(delta)),
            atan2(sin(t2) * scale, cos(t2) * cos(sigma)) % (2 * pi),
            atan2(-sin(delta), sqrt(2) * cos(delta)))


def l1(eta, beta):
    return [abs(cos(eta)) + sqrt(2) * abs(cos(beta) * sin(eta)) + abs(sin(beta) * sin(eta))]


def amplitudes(a, b, c):
    """The eight amplitudes of a|000> - b(|011> + |110>)/sqrt2 - c|101>."""
    amps = [mpf(0)] * 8
    amps[0b000], amps[0b011], amps[0b110], amps[0b101] = a, -b / sqrt(2), -b / sqrt(2), -c
    return amps


def cut_entropies(*amps):
    """Each single-qubit cut: the smaller eigenvalue, det / (the larger),
    of the reduced matrix that the amplitudes give."""
    a = [mpc(x) for x in amps]
    out = []
    for zero, flip in (([0, 1, 2, 3], 4), ([0, 1, 4, 5], 2), ([0, 2, 4, 6], 1)):
        r00, r11 = (sum(abs(a[i + d]) ** 2 for i in zero) for d in (0, flip))
        r01 = sum(a[i] * mpmath.conj(a[i + flip]) for i in zero)
        larger = (r00 + r11 + sqrt((r00 - r11) ** 2 + 4 * abs(r01) ** 2)) / 2
        out.append(entropy((r00 * r11 - abs(r01) ** 2) / larger))
    return out


TRIPLE = constrained_triple(*RNG.uniform(-RANDOM_SPAN, RANDOM_SPAN, (2, 2000)))
ANGLES = (TRIPLE.t1, TRIPLE.t2, TRIPLE.t3)
PARAMS = ScatterParams(RNG.uniform(0.0, 2.0 * math.pi, 500),
                       RNG.uniform(-math.pi / 2, math.pi / 2, 500))
RNG.normal(size=(2, 150, 8))  # unused draws: the points below keep their values
THETAS = np.concatenate([RNG.uniform(0.0, math.pi / 2, 300), near([0.0, math.pi / 2], 150)])
WIGNER_THETAS = np.concatenate([THETAS, RNG.uniform(-10.0, 10.0, 300), RNG.uniform(-1e6, 1e6, 100),
                                [0.0, -0.0, math.pi / 4, -math.pi / 2, 1e15, -1e15, 5e-324]])
# (1e-8, 0.3) printed 0 for 3.0e-15 while 1 - p went to the entropy
ENTROPY_PARAMS = ScatterParams(
    np.concatenate([PARAMS.eta[:200], near([0.0, math.pi], 100), math.pi / 2 + near([0.0], 200),
                    [1e-8, 1e-6, 1e-4]]),
    np.concatenate([PARAMS.beta[:200], RNG.uniform(-math.pi / 2, math.pi / 2, 200),
                    math.pi / 2 + near([0.0], 200), [0.3, 0.3, 0.3]]))
# the report's inputs, the state coordinates at those points
COORDS = tuple(state_coordinates(PARAMS.eta, PARAMS.beta))
ENTROPY_COORDS = tuple(state_coordinates(ENTROPY_PARAMS.eta, ENTROPY_PARAMS.beta))
P_SMALL = np.concatenate([10.0 ** RNG.uniform(-300.0, 0.0, 200) / 2, RNG.uniform(0.0, 0.5, 200)])

# name: (bound, unit, the program's values, the mpmath values at one input
# point, the input columns); the comment gives the largest error measured
BUDGETS = {
    "t2": (20, "ulp", lambda: TRIPLE.t2,  # 13.2: t1 + t3 rounds before the sine
           lambda *t: angle_map(*t)[:1], ANGLES),
    "eta": (2, "ulp", lambda: angles_to_params(TRIPLE).eta,  # 1.73
            lambda *t: angle_map(*t)[1:2], ANGLES),
    "beta": (4.5, "eps", lambda: angles_to_params(TRIPLE).beta,  # 2.32; a wrap adds 2
             lambda *t: angle_map(*t)[2:], ANGLES),
    "amplitudes": (3, "ulp",  # 2.07
                   lambda: state_from_params(PARAMS)[:, [0b000, 0b011, 0b101]].real,
                   lambda e, b: [cos(e), -cos(b) * sin(e) / sqrt(2), -sin(b) * sin(e)],
                   (PARAMS.eta, PARAMS.beta)),
    "l1_S3": (3, "ulp", lambda: get_function("l1_S3")(PARAMS.eta, PARAMS.beta),  # 2.65
              l1, (PARAMS.eta, PARAMS.beta)),
    "l1_Sprime": (3, "ulp", lambda: get_function("l1_Sprime")(PARAMS.eta, PARAMS.beta),  # 2.16
                  l1, (PARAMS.eta, PARAMS.beta)),
    "l1_wigner": (2, "ulp", lambda: get_function("l1_wigner")(WIGNER_THETAS),  # 0.98
                  lambda t: [abs(cos(t)) + abs(sin(t))], (WIGNER_THETAS,)),
    "three_tangle": (2, "eps",  # 0.75
                     lambda: entanglement_report(COORDS).three_tangle,
                     lambda *abc: [4 * abs(hyperdeterminant(amplitudes(*abc)))], COORDS),
    "binary_entropy": (3, "ulp", lambda: binary_entropy(P_SMALL),  # 1.47
                       lambda p: [entropy(mpf(p))], (P_SMALL,)),
    "vn_Sprime": (4, "ulp",  # 3.27
                  lambda: get_function("vn_Sprime")(ENTROPY_PARAMS.eta, ENTROPY_PARAMS.beta),
                  lambda e, b: [entropy(min(cos(e) ** 2 + cos(b) ** 2 * sin(e) ** 2 / 2,
                                            sin(e) ** 2 * (1 + sin(b) ** 2) / 2))],
                  (ENTROPY_PARAMS.eta, ENTROPY_PARAMS.beta)),
    "vn_xi": (3, "ulp", lambda: get_function("vn_xi")(THETAS),  # 2.20
              lambda t: [entropy(min(cos(t) ** 2, sin(t) ** 2))], (THETAS,)),
    "cut_entropies": (4, "ulp",  # 1.78
                      lambda: list(zip(*entanglement_report(ENTROPY_COORDS).vn_entropies.values())),
                      lambda *abc: cut_entropies(*amplitudes(*abc)), ENTROPY_COORDS),
}


def error(value, true, unit):
    """|value - true| in ulps of the true value, or in eps."""
    scale = np.spacing(abs(float(true))) if unit == "ulp" else np.finfo(float).eps
    return float(abs(mpf(value) - true) / scale)


@pytest.mark.parametrize("name", BUDGETS)
def test_error_against_mpmath_is_within_budget(name):
    bound, unit, program, reference, columns = BUDGETS[name]
    exact = [x for point in zip(*(c.tolist() for c in columns)) for x in reference(*point)]
    values = np.ravel(program()).tolist()
    assert len(values) == len(exact)
    worst = max(error(value, true, unit) for value, true in zip(values, exact))
    assert worst <= bound, f"{name}: {worst:.3g} {unit} > {bound} {unit}"


# (eta, beta) near the (pi/2, -+pi/2) strata, which the seeded draws miss,
# where vn_Sprime is 5.24 and 4.25 ulp from mpmath
VN_SPRIME_WORST = [(1.5707962830396431, -1.570796084607452),
                   (1.5707963143238384, 1.5707349082636615)]


@pytest.mark.xfail(strict=True, reason="vn_Sprime exceeds its 4-ulp budget off the seeded "
                                       "points; ROADMAP item 23")
@pytest.mark.parametrize("point", VN_SPRIME_WORST, ids=["5.24ulp", "4.25ulp"])
def test_vn_sprime_is_within_budget_off_the_seeded_points(point):
    bound, unit, _, reference, _ = BUDGETS["vn_Sprime"]
    (true,) = reference(*point)
    assert error(float(get_function("vn_Sprime")(*point)), true, unit) <= bound
