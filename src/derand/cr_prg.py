"""Recursive width-reduction sampler for combinatorial rectangles.

The width schedule iterates v_{j+1} = floor(3 v_j / 4) from v_0 = w
down to the stop width.  Every inner stage j draws a lookup matrix
(2^{v_j} rows by m columns of width-v_{j-1} sign blocks) from one
small-bias string; the last stage draws m width-v_{t-1} blocks
directly, as a one-row matrix; ``_stage_shapes`` gives each stage's
(rows, entry width).  Evaluation walks the stages backwards, each
output block selecting a row of the previous stage's matrix in its own
column, so for any rectangle f the evaluation satisfies
f(s_0(x)) = f^1(s_1(x)) = ... with f^j the rectangle restricted by the
j-th matrix.

Matrix bit layout within its biased string is column-major (all rows of
column 0, then column 1, ...), each entry serialized most significant
sign first.  Row indices are the big-endian packing of the selecting
block.  A seed concatenates the stage seeds, first stage lowest, at the
widths a record's ``seed_widths`` states.

The recipe's constants are fixed: the schedule stops at ``STOP_WIDTH``,
``derive_cr_params`` asks for inner bias delta^INNER_EXP and a final
bias whose exponent scales with ``FINAL_EXP``, and raises either one
below ``DEFAULT_BIAS_FLOOR`` to it.  A record stores its width and
stage specs; its schedule and stage shapes are computed once and cached.

A stage's lookup matrix is a (rows, cols) int64 array of packed
entries, ``pack_matrix`` of the stage's biased string.  ``restrict_rect``,
one ``CombRect.accepts_at`` gather per coordinate, and ``bias_function_cr``
state the composition identity and the bias function that criterion 6
checks; they are kept for the planned structured walk of the rectangle
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
from .signs import SignVector, pack_block, pack_blocks, split_seeds
from .smallbias import (DEFAULT_BIAS_FLOOR, BiasedSpaceSpec, PoweringSeed, floor_biases,
                        generate_biased)

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

    @cached_property
    def stage_shapes(self) -> Tuple[Tuple[int, int], ...]:
        return _stage_shapes(self.schedule)

    @cached_property
    def seed_widths(self) -> Tuple[int, ...]:
        return tuple(s.seed_bits for s in self.stage_specs)

    @property
    def seed_bits(self) -> int:
        return sum(self.seed_widths)

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


def _stage_shapes(sched: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """(rows, entry width) of each stage's lookup matrix: inner stage j
    has 2^{v_{j+1}} rows of width-v_j entries, and the direct stage one
    row of width-v_{t-1} entries (v_0 when the schedule is w alone)."""
    inner = tuple((1 << sched[j + 1], sched[j]) for j in range(len(sched) - 2))
    return inner + ((1, sched[max(len(sched) - 2, 0)]),)


def derive_cr_params(m: int, w: int, delta) -> CrGenParams:
    """Formula-driven parameters: inner bias delta^INNER_EXP, final bias
    delta^(FINAL_EXP loglog(1/delta) logloglog(1/delta)), both passed
    through floor_biases at DEFAULT_BIAS_FLOOR."""
    d = Fraction(delta)
    if not 0 < d < 1 or w < 1 or m < 1:
        raise ValueError("need m, w >= 1 and delta in (0,1)")
    ll = math.log2(max(2.0, math.log2(1 / float(d))))
    lll = math.log2(max(2.0, ll))
    demanded = {"epsilon1": d**INNER_EXP, "epsilon2": d**max(1, math.ceil(FINAL_EXP * ll * lll))}
    biases, hits = floor_biases(demanded, DEFAULT_BIAS_FLOOR)
    eps1, eps2 = biases.values()
    *inner, direct = [rows * m * width for rows, width in _stage_shapes(width_schedule(w))]
    specs = [BiasedSpaceSpec.for_bias(n, eps1) for n in inner]
    specs.append(BiasedSpaceSpec.for_bias(direct, eps2))
    return CrGenParams(m=m, w=w, delta=d, stage_specs=tuple(specs), floor_hits=hits)


def explicit_cr_params(m: int, w: int, delta, degrees, preset: str = "") -> CrGenParams:
    """Pinned per-stage field degrees (inner stages then direct stage)."""
    if m < 1 or w < 1:
        raise ValueError(f"need m, w >= 1, not m={m}, w={w}")
    sched = width_schedule(w)
    shapes = _stage_shapes(sched)
    if len(degrees) != len(shapes):
        raise ValueError(f"schedule {sched} needs {len(shapes)} stage degrees")
    specs = [BiasedSpaceSpec.with_degree(rows * m * width, k)
             for (rows, width), k in zip(shapes, degrees)]
    return CrGenParams(m=m, w=w, delta=Fraction(delta), stage_specs=tuple(specs),
                       preset=preset)


def desk_cr_preset(m: int = 8, w: int = 8) -> CrGenParams:
    """Exhaustive-scale preset: small enough for every-seed sweeps."""
    degrees = (3,) * (len(_stage_shapes(width_schedule(w))) - 1) + (4,)
    return explicit_cr_params(m, w, Fraction(1, 16), degrees=degrees,
                              preset=f"desk-cr{m}x{w}")


# ---------------------------------------------------------------------------
# Lookup matrices
# ---------------------------------------------------------------------------

def pack_matrix(signs, rows: int, cols: int, entry_width: int) -> np.ndarray:
    """Pack a stage's sign string into its (rows, cols) int64 lookup matrix.

    Bits are consumed column-major with entries MSB-first, so position
    col*(rows*W) + row*W + q carries bit (W-1-q) of entry [row, col].
    """
    expect = rows * cols * entry_width
    if len(signs) != expect:
        raise ValueError(f"stage string covers {len(signs)} positions, need {expect}")
    return pack_blocks(np.asarray(signs, dtype=np.int8).reshape(cols, rows, entry_width)).T


def sample_cr(params: CrGenParams, seed: int) -> SignVector:
    """Evaluate the recursive lookup, innermost stage first; output is m
    blocks of w signs.  Each block of the current level, packed, picks
    the row of the next stage's matrix in its own column."""
    parts = [field for field, in split_seeds(params.seed_widths, [seed])]
    signs = generate_biased(params.stage_specs[-1], parts[-1]).values
    width = params.stage_shapes[-1][1]
    for stage in range(params.stages - 2, -1, -1):
        rows, entry_w = params.stage_shapes[stage]
        stage_seed = PoweringSeed(params.stage_specs[stage], parts[stage], entry_w)
        picked = [pack_block(signs[i * width:(i + 1) * width]) for i in range(params.m)]
        signs = [v for i, row in enumerate(picked) for v in stage_seed.signs(i * rows + row, 1)]
        width = entry_w
    return SignVector(tuple(signs))


# ---------------------------------------------------------------------------
# Restriction by a lookup matrix
# ---------------------------------------------------------------------------

def restrict_rect(rect: CombRect, matrix: np.ndarray) -> CombRect:
    """Compose each coordinate with its column's lookup: the restricted
    table at row a holds the original flag of entry [a, i].  The matrix
    needs m columns, 2^v rows and entries in [0, 2^w)."""
    rows, cols = matrix.shape
    if cols != rect.m:
        raise ValueError(f"matrix has {cols} columns, the rectangle {rect.m} coordinates")
    if rows < 1 or rows & (rows - 1):
        raise ValueError(f"matrix row count must be a power of two, not {rows}")
    if matrix.size and (matrix.min() < 0 or int(matrix.max()) >> rect.w):
        raise ValueError(f"matrix entries must lie in [0, 2^{rect.w})")
    tables = tuple(int.from_bytes(np.packbits(rect.accepts_at(i, matrix[:, i]),
                                              bitorder="little").tobytes(), "little")
                   for i in range(rect.m))
    return CombRect(m=rect.m, w=rows.bit_length() - 1, tables=tables)


def bias_function_cr(rect: CombRect, matrix: np.ndarray) -> Fraction:
    """The restricted rectangle's exact expectation: the product over
    coordinates of the fraction of accepting rows."""
    return restrict_rect(rect, matrix).exact_expectation()
