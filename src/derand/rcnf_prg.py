"""Iterated-restriction generator for read-once CNFs and parity-CNFs.

One round draws a subset J_t from an almost-independent sampler and a
sign string z^t from a small-bias space; the freshly covered indices
I_t = J_t minus earlier rounds get their z^t signs.  After T rounds the
remaining indices are filled from one final small-bias string y.  The
same generator serves formulas with parity terms unchanged.
``restriction_trace`` gives each round's restriction as a map from
the indices of I_t to their signs, the form ``apply_restriction`` takes.
``sample`` expands one seed, reading a round's z only at the indices
that round covers first and y only when some index is left;
``sample_batch`` gives the same rows for a batch of seeds, any number
of rounds.

Two parameterization paths exist:

* ``derive_params`` follows the asymptotic recipe with the constants of
  a ``GenConstants`` (C, c, c2 and gamma in its JSON form, the only
  keys the CLI's ``--constants`` file takes).  The formula-driven
  biases are astronomically small even at toy sizes, so the record is
  built from them raised to ``DEFAULT_BIAS_FLOOR``; only
  ``bias_floor=None`` gives the recipe's own seed length.  Its subset
  sampler always reads ``BITS_PER_INDEX`` signs per index.
* ``explicit_params`` pins field degrees under the default constants;
  ``desk_preset`` and ``hsg_inner_preset`` are such records, whose full
  seed space can be enumerated exhaustively, for measured (not claimed)
  error.

A record stores each value once: ``bits_per_index`` and ``delta`` are
read from its subset sampler.

Seed layout, fixed for bit-exact reproducibility: a record's
``seed_widths`` states it, the T z-blocks in round order lowest, then
the T J-blocks, then y; ``split_seed`` cuts a batch of seeds by it.

``shrink_size_bound``, the shrinkage lemma's per-round budget of
surviving clauses, is kept for the planned report of surviving terms
per restriction; today the tests measure shrinkage against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

from .signs import SignVector, split_seeds
from .smallbias import (DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, PoweringSeed, SubsetSamplerSpec,
                        floor_biases, generate_biased, powering_signs, sample_subset,
                        subset_bias_budget, subset_members)

BITS_PER_INDEX = 5  # signs per index in the subset sampler: alpha = 2^-5


@dataclass(frozen=True)
class GenConstants:
    """The asymptotic recipe's free constants, made concrete."""

    rounds_scale: Fraction = Fraction(1)   # C in T = ceil(C loglog n)
    subset_exp: int = 2                    # c in the J-sampler slack (eps/n)^c
    shrink_exp: int = 3                    # c2 in the shrink/final-bias recipe
    shrink_gamma: Fraction = Fraction(1, 8)  # gamma, per-round size decay

    def to_json(self) -> dict:
        return {
            "C": str(self.rounds_scale),
            "c": self.subset_exp,
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


_CONSTANT_KEYS = {"C": "rounds_scale", "c": "subset_exp", "c2": "shrink_exp",
                  "gamma": "shrink_gamma"}  # JSON key -> field


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

    @cached_property
    def seed_widths(self) -> Tuple[int, ...]:
        return ((self.z_spec.seed_bits,) * self.rounds
                + (self.subset_spec.seed_bits,) * self.rounds + (self.y_spec.seed_bits,))

    @property
    def seed_bits(self) -> int:
        return sum(self.seed_widths)

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

    Every demanded bias passes through ``floor_biases`` once, and
    ``floor_hits`` names those raised (the suggested alternative for
    exhaustive work is ``desk_preset``).
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1 or n < 2:
        raise ValueError("need n >= 2 and epsilon in (0,1)")
    rounds = max(1, math.ceil(float(constants.rounds_scale)
                              * math.log2(math.log2(max(n, 4)))))
    delta = (eps / n) ** constants.subset_exp
    lg_ratio = math.log2(float(Fraction(n) / eps))
    big_m = max(2, math.ceil(lg_ratio ** (constants.shrink_exp * rounds)))
    e2 = math.ceil(constants.shrink_exp * math.log2(1 / float(eps)))
    biases, hits = floor_biases({"delta1": eps / sandwich_norm_bound(n, eps, constants),
                                 "delta2": Fraction(1, big_m**max(e2, 1)),
                                 "subset": subset_bias_budget(delta, BITS_PER_INDEX)},
                                bias_floor)
    return RcnfGenParams(
        n=n, epsilon=eps, rounds=rounds,
        z_spec=BiasedSpaceSpec.for_bias(n, biases["delta1"]),
        subset_spec=SubsetSamplerSpec(
            n=n, bits_per_index=BITS_PER_INDEX, delta=delta,
            base=BiasedSpaceSpec.for_bias(n * BITS_PER_INDEX, biases["subset"])),
        y_spec=BiasedSpaceSpec.for_bias(n, biases["delta2"]),
        constants=constants, floor_hits=hits,
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


def split_seed(params: RcnfGenParams, seeds):
    """The z seeds of every round, the J seeds of every round and the y
    seeds of a batch of seeds, each field a list over the batch."""
    fields = split_seeds(params.seed_widths, seeds)
    t = params.rounds
    return fields[:t], fields[t:2 * t], fields[2 * t]


def restriction_trace(params: RcnfGenParams, seed: int):
    """The per-round restrictions, each a map from the indices I_t the
    round covers first to their z^t signs, plus the fill string y, or
    None when the rounds cover every index.

    Reassembling the trace reproduces sample() exactly; the maps' key
    sets are disjoint by construction.  A round's z is read only at the
    fresh indices it covers, and not at all when there are none.
    """
    z_seeds, j_seeds, (y_seed,) = split_seed(params, [seed])
    covered: set = set()
    trace = []
    for (z_seed,), (j_seed,) in zip(z_seeds, j_seeds):
        fresh = sample_subset(params.subset_spec, j_seed) - covered
        z = PoweringSeed(params.z_spec, z_seed) if fresh else None
        covered |= fresh
        trace.append({i: z.signs(i, 1)[0] for i in fresh})
    y = generate_biased(params.y_spec, y_seed) if len(covered) < params.n else None
    return trace, y


def sample(params: RcnfGenParams, seed: int) -> SignVector:
    """Generator output: restricted indices keep their round's z sign,
    the rest take y."""
    trace, y = restriction_trace(params, seed)
    out = list(y.values) if y is not None else [0] * params.n
    for assigned in trace:
        for i, s in assigned.items():
            out[i] = s
    return SignVector(tuple(out))


def sample_batch(params: RcnfGenParams, seeds) -> np.ndarray:
    """Outputs of a batch of seeds (len(seeds) x n, int8); row j equals
    sample(params, seeds[j]).  Every round's z, J and the fill y are
    expanded for the whole batch at once."""
    z_seeds, j_seeds, y_seeds = split_seed(params, seeds)
    out = powering_signs(params.y_spec, y_seeds)
    covered = np.zeros(out.shape, dtype=bool)
    for z_seed, j_seed in zip(z_seeds, j_seeds):
        z = powering_signs(params.z_spec, z_seed)
        fresh = subset_members(params.subset_spec, j_seed) & ~covered
        out[fresh] = z[fresh]
        covered |= fresh
    return out
