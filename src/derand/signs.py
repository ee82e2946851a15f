"""Sign vectors and the bit/sign conventions used across the toolkit.

Global boolean convention: the sign -1 means false and +1 means true.
When signs are packed into integers or table indices, false maps to bit
0 and true to bit 1.

Two serialization orders appear, both fixed for reproducibility:

* Seeds are little-endian: bit 0 of byte 0 is the least-significant bit
  of the first field element.
* Sign blocks (rectangle coordinates, lookup-table entries) pack
  big-endian: the first sign of the block is the most significant bit.

``walsh_hadamard`` serves the sandwich verification of ``approx``; with
``smallbias.output_mask_histogram`` it is also the oracle the tests hold
``smallbias.exact_bias`` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SignVector:
    """An assignment in {-1,+1}^n."""

    values: tuple

    def __post_init__(self):
        if not all(v in (-1, 1) for v in self.values):
            raise ValueError("sign vector entries must be -1 or +1")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def pack_block(signs: Sequence[int]) -> int:
    """Pack a sign block big-endian: first sign is the most significant bit."""
    acc = 0
    for v in signs:
        acc = (acc << 1) | (1 if v == 1 else 0)
    return acc


def all_bit_rows(n: int) -> np.ndarray:
    """uint8 matrix (2^n x n) of every point of {0,1}^n: row m holds the
    bits of m little-endian (column i is bit i)."""
    rows = np.arange(1 << n, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(rows[:, :(n + 7) // 8], axis=1, bitorder="little")[:, :n]


def all_sign_rows(n: int) -> np.ndarray:
    """int8 matrix (2^n x n) of every point of {-1,+1}^n: row m unpacks m
    little-endian, coordinate i being +1 iff bit i of m is set."""
    return all_bit_rows(n).astype(np.int8) * 2 - 1


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n vector.

    Entry m of the result is sum_j (-1)^popcount(j & m) * vec[j], so a
    vector of monomial coefficients indexed by bitmask transforms into
    the polynomial's values, entry m being the point whose coordinate i
    is -1 iff bit i of m is set; a histogram over such packed points
    transforms into its character sums.  The arithmetic stays in the
    input's dtype: exact for integers, with Python ints (object dtype)
    when int64 could overflow.  Returns a new array; the butterflies
    run in place on that one copy.
    """
    h = np.array(vec)
    if h.ndim != 1 or h.size == 0 or h.size & (h.size - 1):
        raise ValueError("Walsh-Hadamard input must be a vector of length 2^n")
    for i in range(h.size.bit_length() - 1):
        pairs = h.reshape(-1, 2, 1 << i)
        top, bottom = pairs[:, 0, :], pairs[:, 1, :]
        top += bottom      # (a, b) -> (a + b, a - b) with no temporary,
        bottom *= -2       # as a - b = (a + b) - 2b
        bottom += top
    return h


def parse_seed_hex(text: str, nbits: int) -> int:
    """Decode a little-endian hex seed: bit 0 of byte 0 is seed bit 0."""
    data = bytes.fromhex(text)
    expect = (nbits + 7) // 8
    if len(data) != expect:
        raise ValueError(f"seed must be exactly {expect} bytes for {nbits} bits, got {len(data)}")
    value = int.from_bytes(data, "little")
    if value >> nbits:
        raise ValueError("seed padding bits beyond the declared length must be zero")
    return value
