"""Iterated-restriction generator for read-once CNFs and parity-CNFs.

One round draws a subset J_t from an almost-independent sampler and a
sign string z^t from a small-bias space; the freshly covered indices
I_t = J_t minus earlier rounds get their z^t signs.  After T rounds the
remaining indices are filled from one final small-bias string y.  The
same generator serves formulas with parity terms unchanged.
``sample`` expands one seed; ``sample_batch`` gives the same rows for a
batch of seeds, any number of rounds.

Two parameterization paths exist:

* ``derive_params`` follows the asymptotic recipe with the constants of
  a ``GenConstants`` (C, c, c1, c2 and gamma in its JSON form, the only
  keys the CLI's ``--constants`` file takes), capping the demanded
  biases at ``DEFAULT_BIAS_FLOOR`` (the formula-driven biases are
  astronomically small even at toy sizes; the derived record reports
  the honest seed length either way).  Its subset sampler always reads
  ``BITS_PER_INDEX`` signs per index.
* ``explicit_params`` pins field degrees under the default constants;
  ``desk_preset`` and ``hsg_inner_preset`` are such records, whose full
  seed space can be enumerated exhaustively, for measured (not claimed)
  error.

A record stores each value once: ``bits_per_index`` and ``delta`` are
read from its subset sampler.

Seed layout, fixed for bit-exact reproducibility: the T z-blocks in
round order occupy the lowest bits, then the T J-blocks, then y.

``shrink_size_bound``, the shrinkage lemma's per-round budget of
surviving clauses, is kept for the planned report of surviving terms
per restriction; today the tests measure shrinkage against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from .signs import SignVector
from .smallbias import (DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, SubsetSamplerSpec,
                        generate_biased, powering_signs, sample_subset, subset_members)

BITS_PER_INDEX = 5  # signs per index in the subset sampler: alpha = 2^-5


@dataclass(frozen=True)
class GenConstants:
    """The asymptotic recipe's free constants, made concrete."""

    rounds_scale: Fraction = Fraction(1)   # C in T = ceil(C loglog n)
    subset_exp: int = 2                    # c in the J-sampler slack (eps/n)^c
    width_cut: int = 13                    # c1, small-width cutoff scale (> 12)
    shrink_exp: int = 3                    # c2 in the shrink/final-bias recipe
    shrink_gamma: Fraction = Fraction(1, 8)  # gamma, per-round size decay

    def to_json(self) -> dict:
        return {
            "C": str(self.rounds_scale),
            "c": self.subset_exp,
            "c1": self.width_cut,
            "c2": self.shrink_exp,
            "gamma": str(self.shrink_gamma),
        }

    @classmethod
    def from_json(cls, data) -> "GenConstants":
        """Inverse of ``to_json``; a missing key keeps its default, an
        unknown key or a value of the wrong kind raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"generator constants must be a JSON object, not {data!r}")
        unknown = sorted(set(data) - set(_CONSTANT_KEYS))
        if unknown:
            raise ValueError(f"unknown generator constants {unknown}; "
                             f"the keys are {', '.join(_CONSTANT_KEYS)}")
        values = {}
        for key, value in data.items():
            name = _CONSTANT_KEYS[key]
            integral = isinstance(getattr(cls, name), int)  # the default gives the kind
            try:
                number = None if isinstance(value, bool) else Fraction(value)
            except (TypeError, ValueError, OverflowError):  # OverflowError: JSON Infinity
                number = None
            if number is None or (integral and number.denominator != 1):
                kind = "an integer" if integral else "a fraction"
                raise ValueError(f"generator constant {key} must be {kind}, not {value!r}")
            values[name] = int(number) if integral else number
        return cls(**values)


_CONSTANT_KEYS = {"C": "rounds_scale", "c": "subset_exp", "c1": "width_cut",
                  "c2": "shrink_exp", "gamma": "shrink_gamma"}  # JSON key -> field


@dataclass(frozen=True)
class RcnfGenParams:
    n: int
    epsilon: Fraction
    rounds: int
    z_spec: BiasedSpaceSpec
    subset_spec: SubsetSamplerSpec
    y_spec: BiasedSpaceSpec
    constants: GenConstants
    floor_hits: Tuple[str, ...] = ()
    preset: str = ""

    @property
    def bits_per_index(self) -> int:
        return self.subset_spec.bits_per_index

    @property
    def delta(self) -> Fraction:
        return self.subset_spec.delta

    @property
    def alpha(self) -> Fraction:
        return self.subset_spec.alpha

    @property
    def delta1(self) -> Fraction:
        return self.z_spec.epsilon

    @property
    def delta2(self) -> Fraction:
        return self.y_spec.epsilon

    @property
    def seed_bits(self) -> int:
        return (self.rounds * (self.z_spec.seed_bits + self.subset_spec.seed_bits)
                + self.y_spec.seed_bits)

    def bias_budget(self) -> Fraction:
        """The configured error budget delta1 * L * T + 2 eps T, L the
        sandwich norm bound (may exceed 1 at desk scale; reported, and
        capped at 1 when used)."""
        L = sandwich_norm_bound(self.n, self.epsilon, self.constants)
        return self.delta1 * L * self.rounds + 2 * self.epsilon * self.rounds

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "epsilon": str(self.epsilon),
            "rounds": self.rounds,
            "alpha": str(self.alpha),
            "delta": str(self.delta),
            "delta1": str(self.delta1),
            "delta2": str(self.delta2),
            "zSpace": self.z_spec.to_json(),
            "subsetSampler": self.subset_spec.to_json(),
            "ySpace": self.y_spec.to_json(),
            "constants": self.constants.to_json(),
            "seedLengthBits": self.seed_bits,
            "floorHits": list(self.floor_hits),
            **({"preset": self.preset} if self.preset else {}),
        }


def sandwich_norm_bound(n: int, epsilon: Fraction, constants: GenConstants) -> Fraction:
    """L(n, eps) = (n/eps)^ceil(c * (loglog(n/eps))^2), exponent rounded up."""
    ratio = Fraction(n) / epsilon
    loglog = math.log2(max(math.log2(float(ratio)), 2.0))
    exponent = math.ceil(constants.subset_exp * loglog * loglog)
    return ratio**exponent


def shrink_size_bound(n: int, epsilon: Fraction, m: int, constants: GenConstants) -> float:
    """Surviving-clause budget (log2(n/eps))^c2 * m^(1-gamma) per round."""
    lg = math.log2(float(Fraction(n) / epsilon))
    return lg**constants.shrink_exp * m ** float(1 - constants.shrink_gamma)


def derive_params(n: int, epsilon, constants: GenConstants = GenConstants(),
                  bias_floor: Fraction | None = DEFAULT_BIAS_FLOOR) -> RcnfGenParams:
    """Concrete parameters from the asymptotic recipe.

    Raises nothing on floor collisions: the capped record carries a
    diagnostic list in ``floor_hits`` (the suggested alternative for
    exhaustive work is ``desk_preset``).
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1 or n < 2:
        raise ValueError("need n >= 2 and epsilon in (0,1)")
    rounds = max(1, math.ceil(float(constants.rounds_scale)
                              * math.log2(math.log2(max(n, 4)))))
    hits = []
    delta = (eps / n) ** constants.subset_exp
    delta1 = eps / sandwich_norm_bound(n, eps, constants)
    if bias_floor is not None and delta1 < bias_floor:
        delta1 = bias_floor
        hits.append("delta1")
    lg_ratio = math.log2(float(Fraction(n) / eps))
    big_m = max(2, math.ceil(lg_ratio ** (constants.shrink_exp * rounds)))
    e2 = math.ceil(constants.shrink_exp * math.log2(1 / float(eps)))
    delta2 = Fraction(1, big_m**max(e2, 1))
    if bias_floor is not None and delta2 < bias_floor:
        delta2 = bias_floor
        hits.append("delta2")
    subset = SubsetSamplerSpec.build(n, BITS_PER_INDEX, delta, bias_floor=bias_floor)
    if bias_floor is not None and subset.base.epsilon == bias_floor:
        hits.append("subset")
    return RcnfGenParams(
        n=n, epsilon=eps, rounds=rounds,
        z_spec=BiasedSpaceSpec.for_bias(n, delta1),
        subset_spec=subset,
        y_spec=BiasedSpaceSpec.for_bias(n, delta2),
        constants=constants, floor_hits=tuple(hits),
    )


def explicit_params(n: int, epsilon, k_subset: int, k_z: int, k_y: int,
                    bits_per_index: int = BITS_PER_INDEX, preset: str = "") -> RcnfGenParams:
    """One round at directly pinned field degrees with the default
    constants; biases are whatever those degrees give."""
    if n < 1:
        raise ValueError(f"generator length n must be positive, not {n}")
    eps = Fraction(epsilon)
    constants = GenConstants()
    return RcnfGenParams(
        n=n, epsilon=eps, rounds=1,
        z_spec=BiasedSpaceSpec.with_degree(n, k_z),
        subset_spec=SubsetSamplerSpec.with_degree(n, bits_per_index, k_subset,
                                                  delta=(eps / n) ** constants.subset_exp),
        y_spec=BiasedSpaceSpec.with_degree(n, k_y),
        constants=constants, preset=preset,
    )


def desk_preset() -> RcnfGenParams:
    """The frozen exhaustive-scale preset: n=64, eps=1/16, 26 seed bits."""
    return explicit_params(64, Fraction(1, 16), k_subset=3, k_z=3, k_y=7, preset="desk64")


@lru_cache(maxsize=None)
def hsg_inner_preset(n: int) -> RcnfGenParams:
    """Small preset used inside the width-3 hitting generator (n <= 16),
    built once per n: every hsg_sample call reads it."""
    return explicit_params(n, Fraction(1, 4), k_subset=2, k_z=3, k_y=6, preset=f"hsg{n}")


def _seed_layout(params: RcnfGenParams) -> list:
    """(offset, bits) of z_1..z_T, then J_1..J_T, then y within a seed."""
    sizes = ([params.z_spec.seed_bits] * params.rounds
             + [params.subset_spec.seed_bits] * params.rounds + [params.y_spec.seed_bits])
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    return list(zip(offsets, sizes))


def split_seed(params: RcnfGenParams, seed: int):
    if seed < 0 or seed >> params.seed_bits:
        raise ValueError(f"seed must fit in {params.seed_bits} bits")
    fields = [(seed >> offset) & ((1 << bits) - 1) for offset, bits in _seed_layout(params)]
    t = params.rounds
    return fields[:t], fields[t:2 * t], fields[2 * t]


def restriction_trace(params: RcnfGenParams, seed: int):
    """The per-round restrictions (I_t, signs on I_t) plus the fill string
    y, or None when the rounds cover every index.

    Reassembling the trace reproduces sample() exactly; the I_t are
    disjoint by construction.  A round's z is expanded only when it
    covers a fresh index.
    """
    z_seeds, j_seeds, y_seed = split_seed(params, seed)
    covered: set = set()
    trace = []
    for t in range(params.rounds):
        fresh = sample_subset(params.subset_spec, j_seeds[t]) - covered
        z = generate_biased(params.z_spec, z_seeds[t]) if fresh else None
        covered |= fresh
        trace.append((fresh, {i: z[i] for i in fresh}))
    y = generate_biased(params.y_spec, y_seed) if len(covered) < params.n else None
    return trace, y


def sample(params: RcnfGenParams, seed: int) -> SignVector:
    """Generator output: restricted indices keep their round's z sign,
    the rest take y."""
    trace, y = restriction_trace(params, seed)
    out = list(y.values) if y is not None else [0] * params.n
    for _, assigned in trace:
        for i, s in assigned.items():
            out[i] = s
    return SignVector(tuple(out))


def sample_batch(params: RcnfGenParams, seeds) -> np.ndarray:
    """Outputs of a batch of seeds (len(seeds) x n, int8); row j equals
    sample(params, seeds[j]).  Every round's z, J and the fill y are
    expanded for the whole batch at once."""
    seeds, width = list(seeds), params.seed_bits
    if any(seed < 0 or seed >> width for seed in seeds):
        raise ValueError(f"seed must fit in {width} bits")
    blocks = [[(seed >> offset) & ((1 << bits) - 1) for seed in seeds]
              for offset, bits in _seed_layout(params)]
    t = params.rounds
    out = powering_signs(params.y_spec, blocks[2 * t])
    covered = np.zeros(out.shape, dtype=bool)
    for r in range(t):
        z = powering_signs(params.z_spec, blocks[r])
        fresh = subset_members(params.subset_spec, blocks[t + r]) & ~covered
        out[fresh] = z[fresh]
        covered |= fresh
    return out
