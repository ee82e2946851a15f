"""Elementary symmetric polynomials, power sums and the S_1/S_2 bound.

All kernels run in exact rational arithmetic when handed Fractions and
in float64 when handed floats; the verification sweeps choose the mode
per check (identities exactly, large sweeps in floats with a stated
tolerance).  Criterion 2's suite (``harness.check_sympoly``) runs these
kernels, with ``elem_sym_enumerated`` as the subset-enumeration oracle
of ``elem_sym_all``.  The truncation and moment lemmas built on them
are checked in the tests, which hold them as plain helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


def elem_sym_all(z: Sequence, up_to: int) -> list:
    """S_0..S_up_to of the given values, by the stable prefix DP.

    Multiplies out prod_i (1 + z_i t) keeping degrees <= up_to, O(m*k);
    S_k = 0 for k beyond len(z).
    """
    zero = z[0] * 0 if z else 0
    e = [zero] * (up_to + 1)
    e[0] = zero + 1
    for idx, zi in enumerate(z):
        top = min(up_to, idx + 1)
        for j in range(top, 0, -1):
            e[j] = e[j] + e[j - 1] * zi
    return e


def elem_sym_enumerated(z: Sequence, k: int):
    """Subset-enumeration oracle for S_k; exponential, test use only."""
    if k == 0:
        return (z[0] * 0 + 1) if z else 1
    total = 0
    for combo in combinations(z, k):
        prod = combo[0]
        for v in combo[1:]:
            prod = prod * v
        total = total + prod
    return total


def power_sums(z: Sequence, up_to: int) -> list:
    """E_1..E_up_to with E_k = sum_i z_i^k."""
    out = []
    powers = list(z)
    for k in range(1, up_to + 1):
        if k > 1:
            powers = [p * v for p, v in zip(powers, z)]
        out.append(sum(powers, z[0] * 0 if z else 0))
    return out


def newton_girard_residual(z: Sequence, up_to: int):
    """Max residual of S_k = (1/k) sum_i (-1)^(i-1) S_{k-i} E_i over k <= up_to."""
    S = elem_sym_all(z, up_to)
    E = power_sums(z, up_to)
    worst = abs(S[0] - S[0])  # typed zero
    for k in range(1, up_to + 1):
        acc = S[0] * 0
        for i in range(1, k + 1):
            term = S[k - i] * E[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        recon = acc / k
        worst = max(worst, abs(S[k] - recon))
    return worst


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    hypotheses_ok: bool


def check_s1s2_bound(z: Sequence, mu, up_to: int) -> BoundCheck:
    """Verify |S_j| <= mu^j for 2 <= j <= up_to.

    Hypotheses |sum z_i| <= mu and sum z_i^2 <= mu^2 are checked first;
    inputs that fail them yield hypotheses_ok=False rather than a
    bound violation.
    """
    s1 = sum(z, z[0] * 0 if z else 0)
    sq = sum((v * v for v in z), z[0] * 0 if z else 0)
    if abs(s1) > mu or sq > mu * mu:
        return BoundCheck(ok=True, hypotheses_ok=False)
    S = elem_sym_all(z, up_to)
    bound = mu * mu
    for j in range(2, up_to + 1):
        if abs(S[j]) > bound:
            return BoundCheck(ok=False, hypotheses_ok=True)
        bound = bound * mu
    return BoundCheck(ok=True, hypotheses_ok=True)
