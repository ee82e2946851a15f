"""Sign vectors and the bit/sign conventions used across the toolkit.

Global boolean convention: the sign -1 means false and +1 means true.
When signs are packed into integers or table indices, false maps to bit
0 and true to bit 1.

Two serialization orders appear, both fixed for reproducibility:

* Seeds are little-endian: bit 0 of byte 0 is the least-significant bit
  of the first field element.
* Sign blocks (rectangle coordinates, lookup-table entries) pack
  big-endian: the first sign of the block is the most significant bit.
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

    @classmethod
    def from_int(cls, value: int, n: int) -> "SignVector":
        """Unpack little-endian: bit i of ``value`` is coordinate i."""
        return cls(tuple(1 if (value >> i) & 1 else -1 for i in range(n)))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int8)


def pack_block(signs: Sequence[int]) -> int:
    """Pack a sign block big-endian: first sign is the most significant bit."""
    acc = 0
    for v in signs:
        acc = (acc << 1) | (1 if v == 1 else 0)
    return acc


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """uint8 matrix whose row j holds bits 0..width-1 of values[j]
    (little-endian: column i is bit i).  Values may exceed 64 bits."""
    nbytes = (width + 7) // 8
    mask = (1 << width) - 1
    raw = np.frombuffer(b"".join((v & mask).to_bytes(nbytes, "little") for v in values),
                        dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width]


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


def seed_bits_from_bytes(data: bytes, nbits: int) -> int:
    """Decode a little-endian seed: bit 0 of byte 0 is seed bit 0."""
    expect = (nbits + 7) // 8
    if len(data) != expect:
        raise ValueError(f"seed must be exactly {expect} bytes for {nbits} bits, got {len(data)}")
    value = int.from_bytes(data, "little")
    if value >> nbits:
        raise ValueError("seed padding bits beyond the declared length must be zero")
    return value


def seed_bytes(value: int, nbits: int) -> bytes:
    return value.to_bytes((nbits + 7) // 8, "little")


def parse_seed_hex(text: str, nbits: int) -> int:
    return seed_bits_from_bytes(bytes.fromhex(text), nbits)
