"""Residual-check registry: the relation suites behind ``ybekit verify``.

``SUITES`` runs them in this order:

tl         Temperley-Lieb relations of the type-I and type-II representations
braid      braid relations, alpha-d consistency and braids built from TL
ybe        worst Yang-Baxter residual of each bundled R-matrix family
reduction  fusion-basis orthonormality, reduced braid generators and the
           three-body reduction at the GHZ/W preimages

The rule is fail-closed: a :class:`Check` passes only when
``residual <= tol``, which is False for NaN, and :func:`worst` keeps a NaN
sample (``max(0.0, nan)`` is 0.0) and reads NaN for an empty sample set.

Only ``ybe`` samples: it draws all its pairs in one ``rng.uniform`` call
(plus one per redraw), the numbers one draw per pair would take, and checks
them in bounded blocks.  :func:`random_reduction`, behind ``ybekit reduce
--random``, draws its triples the same way.  A sample's residual does not
depend on the block it falls in, and a pole, constraint or leakage gate
raises when any single sample trips it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .braiding import (
    ALPHA_TYPE1, ALPHA_TYPE2, PHASE_TYPE1, PHASE_TYPE2, bell_braid, braid2x2_type1,
    braid2x2_type2, braid_from_tl, braid_rep_from_local, check_braid_relations,
    check_tl_relations, lift_two_site, permutation_matrix, quantum_dimension, tl2x2_type1,
    tl2x2_type2, tl_rep_from_local, tl_type1_local, tl_type2_local,
)
from .fusionbasis import (
    fusion_basis_type1, fusion_basis_type2, reduce_operator, reduce_three_body,
)
from .rmatrix import RMatrixFamily, bundled_families, check_ybe, galilean
from .tensor import norm_inf
from .threebody import AngleTriple, random_constrained_triple


@dataclass(frozen=True)
class Check:
    """One named residual; it passes only when ``residual <= tol``, never for NaN."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)


def worst(residuals: Iterable[float]) -> float:
    """Largest residual; NaN if any residual is NaN or there are none."""
    values = np.fromiter(residuals, dtype=float)
    return float(values.max()) if values.size else math.nan


def _relation_checks(fixtures, checker, tol: float) -> list[Check]:
    return [Check(f"{name}: {relation}", residual, tol)
            for name, rep in fixtures for relation, residual in checker(rep).items()]


def tl_suite(tol: float) -> list[Check]:
    """TL relations of the type-I and type-II representations."""
    return _relation_checks([
        ("tl.type1.4x4.n3", tl_rep_from_local(tl_type1_local(), 3, 2.0)),
        ("tl.type2.4x4.n3", tl_rep_from_local(tl_type2_local(), 3, math.sqrt(2.0))),
        ("tl.type1.2x2.strands4", tl2x2_type1()),
        ("tl.type2.2x2.strands4", tl2x2_type2()),
    ], check_tl_relations, tol)


def braid_suite(tol: float) -> list[Check]:
    """Braid relations, alpha-d consistency and the braid-from-TL constructions."""
    checks = _relation_checks([
        ("braid.bell.n3", braid_rep_from_local(bell_braid(), 3)),
        ("braid.permutation.n3", braid_rep_from_local(permutation_matrix(), 3)),
        ("braid.type1.2x2.strands4", braid2x2_type1()),
        ("braid.type2.2x2.strands4", braid2x2_type2()),
    ], check_braid_relations, tol)
    checks += [
        Check("alpha-d consistency: type1 (alpha=i, d=2)",
              abs(quantum_dimension(ALPHA_TYPE1) - 2.0), 1e-14),
        Check("alpha-d consistency: type2 (alpha=e^{3i pi/8}, d=sqrt2)",
              abs(quantum_dimension(ALPHA_TYPE2) - math.sqrt(2.0)), 1e-14),
    ]
    for label, alpha, tl_local, loop_value, phase, braid_local in [
        ("type1 reproduces the permutation braid",
         ALPHA_TYPE1, tl_type1_local(), 2.0, PHASE_TYPE1, permutation_matrix()),
        ("type2 reproduces the Bell braid",
         ALPHA_TYPE2, tl_type2_local(), math.sqrt(2.0), PHASE_TYPE2, bell_braid()),
    ]:
        built = braid_from_tl(alpha, tl_rep_from_local(tl_local, 3, loop_value), phase)
        target = braid_rep_from_local(braid_local, 3)
        deviation = worst(norm_inf(a - b) for a, b in zip(built.generators, target.generators))
        checks.append(Check(f"braid-from-tl {label}", deviation, tol))
    return checks


def _ybe_pairs(family: RMatrixFamily, rng: np.random.Generator, samples: int):
    """(p1, p3) arrays of ``samples`` admissible pairs from one ``rng.uniform``
    call, plus one per redraw of Galilean pairs within 0.05 of the pole
    ``(p1 + p3)^2 = 1``: the pairs and generator state of one draw per pair."""
    low, high = (-0.9, 0.9) if family.rule is galilean else (0.01, 1.55)
    pairs = np.empty((0, 2))
    while short := samples - len(pairs):
        drawn = rng.uniform(low, high, size=(short, 2))
        if family.rule is galilean:
            drawn = drawn[~(np.abs(1.0 - np.square(drawn[:, 0] + drawn[:, 1])) < 0.05)]
        pairs = np.concatenate([pairs, drawn])
    return pairs[:, 0], pairs[:, 1]


def ybe_suite(tol: float, samples: int, seed: int) -> list[Check]:
    """Worst YBE residual of each bundled family, sampled in name order
    from one generator."""
    rng = np.random.default_rng(seed)
    return [Check(f"ybe.{name} ({samples} samples)",
                  worst(check_ybe(f, *_ybe_pairs(f, rng, samples))), tol)
            for name, f in sorted(bundled_families().items())]


def random_reduction(samples: int, seed: int) -> np.ndarray:
    """Per-sample three-body reduction residuals of ``samples`` random
    constrained triples, drawn in one call."""
    rng = np.random.default_rng(seed)
    return reduce_three_body(random_constrained_triple(rng, samples))[3]


def reduction_suite(tol: float) -> list[Check]:
    """Fusion-basis checks; the lifted braid generators must reduce to the
    2x2 four-strand braids, and the three-body product at the GHZ and W
    preimages to its closed form.  :func:`random_reduction` checks random
    triples."""
    basis2 = fusion_basis_type2()
    basis1 = fusion_basis_type1()
    checks = [
        Check(f"fusion-basis.{label} orthonormality",
              worst([abs(np.vdot(basis.e1, basis.e1) - 1.0),
                     abs(np.vdot(basis.e2, basis.e2) - 1.0), abs(np.vdot(basis.e1, basis.e2))]),
              1e-13)
        for label, basis in (("type1", basis1), ("type2", basis2))
    ]
    type1, type2 = braid2x2_type1().generators, braid2x2_type2().generators
    for label, local, site, basis, expected in [
        ("type2 braid generator 1 -> e^{-i pi/4} diag(1, i)",
         bell_braid(), 1, basis2, type2[0]),
        ("type2 braid generator 2 -> [[1,-i],[-i,1]]/sqrt2", bell_braid(), 2, basis2, type2[1]),
        ("type1 braid generator 2 -> [[1,-sqrt3],[-sqrt3,-1]]/2",
         permutation_matrix(), 2, basis1, type1[1]),
    ]:
        reduced = reduce_operator(lift_two_site(local, site, 4), basis, tol=1e-10)
        checks.append(Check(f"reduce.{label}", norm_inf(reduced - expected), tol))
    for label, triple in [
        ("ghz preimage (0, pi/4, pi/4)", AngleTriple(0.0, math.pi / 4, math.pi / 4)),
        ("w preimage (pi/8, arctan sqrt2, 3 pi/8)",
         AngleTriple(math.pi / 8, math.atan(math.sqrt(2.0)), 3 * math.pi / 8)),
    ]:
        checks.append(Check(f"reduce.three-body {label}", reduce_three_body(triple)[3], 1e-11))
    return checks


# Suite name -> runner over the options of ``ybekit verify``: any object
# with ``tol``, ``samples`` and ``seed`` attributes.
SUITES: dict[str, Callable[..., list[Check]]] = {
    "tl": lambda o: tl_suite(o.tol),
    "braid": lambda o: braid_suite(o.tol),
    "ybe": lambda o: ybe_suite(o.tol, o.samples, o.seed),
    "reduction": lambda o: reduction_suite(o.tol),
}
