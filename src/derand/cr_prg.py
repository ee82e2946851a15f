"""Recursive width-reduction sampler for combinatorial rectangles.

The width schedule iterates v_{j+1} = floor(3 v_j / 4) from v_0 = w
down to the stop width.  Every inner stage j draws a lookup matrix
(2^{v_j} rows by m columns of width-v_{j-1} sign blocks) from one
small-bias string; the last stage draws m width-v_{t-1} blocks
directly.  Evaluation walks the stages backwards, each output block
selecting a row of the previous stage's matrix in its own column, so
for any rectangle f the evaluation satisfies
f(s_0(x)) = f^1(s_1(x)) = ... with f^j the rectangle restricted by the
j-th matrix.

Matrix bit layout within its biased string is column-major (all rows of
column 0, then column 1, ...), each entry serialized most significant
sign first.  Row indices are the big-endian packing of the selecting
block.

The recipe's constants are fixed: the schedule stops at ``STOP_WIDTH``,
``derive_cr_params`` asks for inner bias delta^INNER_EXP and a final
bias whose exponent scales with ``FINAL_EXP``, and caps both at
``DEFAULT_BIAS_FLOOR``.  A record stores its width and stage specs; its
schedule is computed from w once and cached.

``materialize_matrix``, ``restrict_rect`` and ``bias_function_cr`` state
the composition identity and the bias function that criterion 6 checks;
they are kept for the planned structured walk of the rectangle
generator, which restricts by one stage's matrix per inner seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .models import CombRect
from .signs import SignVector, pack_block
from .smallbias import DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, PoweringSeed, generate_biased

STOP_WIDTH = 4  # the width schedule stops at the first width <= this
INNER_EXP = 13  # inner-stage bias delta^INNER_EXP
FINAL_EXP = 3   # scale of the final-stage bias exponent


def width_schedule(w: int) -> Tuple[int, ...]:
    """Strictly decreasing widths from w to the first value <= STOP_WIDTH."""
    sched = [w]
    while sched[-1] > STOP_WIDTH:
        sched.append((3 * sched[-1]) // 4)
    return tuple(sched)


@dataclass(frozen=True)
class CrGenParams:
    m: int
    w: int
    delta: Fraction
    stage_specs: Tuple[BiasedSpaceSpec, ...]  # inner matrix stages, then the direct stage
    floor_hits: Tuple[str, ...] = ()
    preset: str = ""

    @cached_property
    def schedule(self) -> Tuple[int, ...]:
        return width_schedule(self.w)

    @property
    def stages(self) -> int:
        return len(self.stage_specs)

    @property
    def direct_width(self) -> int:
        return self.schedule[-2] if len(self.schedule) >= 2 else self.schedule[0]

    @property
    def seed_bits(self) -> int:
        return sum(s.seed_bits for s in self.stage_specs)

    def stage_geometry(self, stage: int) -> tuple:
        """(rows, entry_width) of the lookup matrix at inner stage index
        ``stage`` (0-based among inner stages)."""
        rows = 1 << self.schedule[stage + 1]
        return rows, self.schedule[stage]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "w": self.w,
            "delta": str(self.delta),
            "schedule": list(self.schedule),
            "stopWidth": STOP_WIDTH,
            "stages": [s.to_json() for s in self.stage_specs],
            "constants": {"c1": INNER_EXP, "c2": FINAL_EXP},
            "seedLengthBits": self.seed_bits,
            "floorHits": list(self.floor_hits),
            **({"preset": self.preset} if self.preset else {}),
        }


def _stage_lengths(m: int, sched: Tuple[int, ...]) -> list:
    """String length of each inner stage's matrix, then of the direct stage."""
    t = len(sched) - 1
    return ([(1 << sched[j]) * m * sched[j - 1] for j in range(1, t)]
            + [m * (sched[t - 1] if t >= 1 else sched[0])])


def derive_cr_params(m: int, w: int, delta) -> CrGenParams:
    """Formula-driven parameters: inner bias delta^INNER_EXP, final bias
    delta^(FINAL_EXP loglog(1/delta) logloglog(1/delta)), both capped at
    DEFAULT_BIAS_FLOOR."""
    d = Fraction(delta)
    if not 0 < d < 1 or w < 1 or m < 1:
        raise ValueError("need m, w >= 1 and delta in (0,1)")
    ll = math.log2(max(2.0, math.log2(1 / float(d))))
    lll = math.log2(max(2.0, ll))
    demanded = {"epsilon1": d**INNER_EXP, "epsilon2": d**max(1, math.ceil(FINAL_EXP * ll * lll))}
    hits = tuple(name for name, eps in demanded.items() if eps < DEFAULT_BIAS_FLOOR)
    eps1, eps2 = (max(eps, DEFAULT_BIAS_FLOOR) for eps in demanded.values())
    lengths = _stage_lengths(m, width_schedule(w))
    specs = [BiasedSpaceSpec.for_bias(n, eps1) for n in lengths[:-1]]
    specs.append(BiasedSpaceSpec.for_bias(lengths[-1], eps2))
    return CrGenParams(m=m, w=w, delta=d, stage_specs=tuple(specs), floor_hits=hits)


def explicit_cr_params(m: int, w: int, delta, degrees, preset: str = "") -> CrGenParams:
    """Pinned per-stage field degrees (inner stages then direct stage)."""
    if m < 1 or w < 1:
        raise ValueError(f"need m, w >= 1, not m={m}, w={w}")
    sched = width_schedule(w)
    expect = max(len(sched) - 1, 1)
    if len(degrees) != expect:
        raise ValueError(f"schedule {sched} needs {expect} stage degrees")
    specs = [BiasedSpaceSpec.with_degree(n, k) for n, k in zip(_stage_lengths(m, sched), degrees)]
    return CrGenParams(m=m, w=w, delta=Fraction(delta), stage_specs=tuple(specs),
                       preset=preset)


def desk_cr_preset(m: int = 8, w: int = 8) -> CrGenParams:
    """Exhaustive-scale preset: small enough for every-seed sweeps."""
    sched = width_schedule(w)
    degrees = tuple([3] * max(len(sched) - 2, 0) + [4])
    return explicit_cr_params(m, w, Fraction(1, 16), degrees=degrees,
                              preset=f"desk-cr{m}x{w}")


# ---------------------------------------------------------------------------
# Lookup matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LookupMatrix:
    """One inner stage's table: entry [row, col] is a packed sign block."""

    rows: int
    cols: int
    entry_width: int
    packed: np.ndarray  # shape (rows, cols), int64 of big-endian packed entries


def pack_matrix(signs: np.ndarray, rows: int, cols: int, entry_width: int) -> LookupMatrix:
    """Pack a stage's sign string into its lookup matrix.

    Bits are consumed column-major with entries MSB-first, so position
    col*(rows*W) + row*W + q carries bit (W-1-q) of entry [row, col].
    """
    expect = rows * cols * entry_width
    if len(signs) != expect:
        raise ValueError(f"stage string covers {len(signs)} positions, need {expect}")
    cube = np.asarray(signs, dtype=np.int8).reshape(cols, rows, entry_width)
    bits = (cube == 1).astype(np.int64)
    weights = 1 << np.arange(entry_width - 1, -1, -1, dtype=np.int64)
    packed = (bits * weights).sum(axis=2).T.copy()
    return LookupMatrix(rows=rows, cols=cols, entry_width=entry_width, packed=packed)


def materialize_matrix(spec: BiasedSpaceSpec, seed: int, rows: int, cols: int,
                       entry_width: int) -> LookupMatrix:
    """Expand a stage seed into its full lookup matrix."""
    signs = np.array(generate_biased(spec, seed).values, dtype=np.int8)
    return pack_matrix(signs, rows, cols, entry_width)


def split_cr_seed(params: CrGenParams, seed: int) -> list:
    if seed < 0 or seed >> params.seed_bits:
        raise ValueError(f"seed must fit in {params.seed_bits} bits")
    bits = [spec.seed_bits for spec in params.stage_specs]
    return [(seed >> sum(bits[:i])) & ((1 << b) - 1) for i, b in enumerate(bits)]


def sample_cr_levels(params: CrGenParams, seed: int) -> list:
    """Per-level packed blocks of the recursive lookup, innermost first.

    Entry j of the result holds the m blocks at schedule width
    ``schedule[level]`` for level = stages-1 down to 0; the last entry
    is the generator output.  Each level's blocks index the rows of the
    previous stage's matrix in their own column.
    """
    parts = split_cr_seed(params, seed)
    dw = params.direct_width
    direct = generate_biased(params.stage_specs[-1], parts[-1]).values
    blocks = [pack_block(direct[i * dw:(i + 1) * dw]) for i in range(params.m)]
    levels = [tuple(blocks)]
    for stage in range(params.stages - 2, -1, -1):
        rows, entry_w = params.stage_geometry(stage)
        stage_seed = PoweringSeed(params.stage_specs[stage], parts[stage])
        blocks = [pack_block(stage_seed.signs(i * rows * entry_w + row * entry_w, entry_w))
                  for i, row in enumerate(blocks)]
        levels.append(tuple(blocks))
    return levels


def unpack_blocks(blocks, width: int) -> tuple:
    out = []
    for b in blocks:
        out.extend(1 if (b >> (width - 1 - q)) & 1 else -1 for q in range(width))
    return tuple(out)


def sample_cr(params: CrGenParams, seed: int) -> SignVector:
    """Evaluate the recursive lookup; output is m blocks of w signs."""
    return SignVector(unpack_blocks(sample_cr_levels(params, seed)[-1], params.w))


# ---------------------------------------------------------------------------
# Restriction by a lookup matrix
# ---------------------------------------------------------------------------

def restrict_rect(rect: CombRect, matrix: LookupMatrix) -> CombRect:
    """Compose each coordinate with its column's lookup: the restricted
    table at row a holds the original flag of entry [a, i]."""
    if matrix.cols != rect.m or matrix.entry_width != rect.w:
        raise ValueError("matrix geometry does not match the rectangle")
    v = matrix.rows.bit_length() - 1
    if 1 << v != matrix.rows:
        raise ValueError("matrix row count must be a power of two")
    tables = []
    for i in range(rect.m):
        tbl = 0
        col = matrix.packed[:, i]
        for a in range(matrix.rows):
            if rect.coordinate_accepts(i, int(col[a])):
                tbl |= 1 << a
        tables.append(tbl)
    return CombRect(m=rect.m, w=v, tables=tuple(tables))


def bias_function_cr(rect: CombRect, matrix: LookupMatrix) -> Fraction:
    """The restricted rectangle's exact expectation: the product over
    coordinates of the fraction of accepting rows."""
    return restrict_rect(rect, matrix).exact_expectation()
