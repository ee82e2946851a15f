"""The four target function classes with exact analytics.

Read-once CNFs, conjunctions with parity terms, combinatorial
rectangles and layered read-once branching programs, each with exact
(rational) expectation computation, restriction application and batch
evaluation.  A read-once CNF is the all-OR case of a parity-CNF: both
formula classes run one term engine over their ``terms``, and one
``apply_restriction`` serves both.  A restriction is a mapping from
variable index to sign; a generator round's maps each index it covers
first to that round's z sign.  A branching program's expectations
come from two integer path counts, backward to Acc and forward from
the start, its batch evaluations from one layer walk and its tables
over every input (accept flags, bp3's bad-state visits) from one
prefix doubling, ``batch_prefix_slots``, and one read-order transpose;
the doubling walks any batch of programs that share n and d, the
hitting sweep's or one program's.  ``Fraction`` appears only in the
values returned.  Everything is immutable after construction; the
sign convention is the global one (-1 false, +1 true).
``bias_function``, the expectation under a restriction, is kept as the
oracle of a planned integer walk that splits each landmark's error
into restriction error and fill error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from .signs import pack_block, pack_blocks


@dataclass(frozen=True)
class Literal:
    index: int
    negated: bool = False

    def truth(self, sign: int) -> bool:
        return (sign == 1) != self.negated

    def __str__(self):
        return f"{'-' if self.negated else ''}{self.index + 1}"


def _check_read_once(groups: Iterable[Sequence[Literal]], n: int) -> None:
    seen = set()
    for lits in groups:
        for lit in lits:
            if not 0 <= lit.index < n:
                raise ValueError(f"variable index {lit.index} outside [0,{n})")
            if lit.index in seen:
                raise ValueError(f"variable {lit.index} appears more than once")
            seen.add(lit.index)


# ---------------------------------------------------------------------------
# Read-once conjunctions of OR and parity terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """One conjunct: an OR of literals, or a parity constraint.

    An XOR term is satisfied when the XOR of its literal truth values
    equals ``target``.
    """

    kind: str  # "or" | "xor"
    literals: Tuple[Literal, ...]
    target: int = 1

    def __post_init__(self):
        if self.kind not in ("or", "xor"):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if not self.literals:
            raise ValueError("terms must be nonempty")
        if self.target not in (0, 1):
            raise ValueError("xor target must be 0 or 1")

    @property
    def target_one_literals(self) -> Tuple[Literal, ...]:
        """The literals of the same conjunct read with target 1: a
        parity term with target 0 has its first literal negated, which
        complements its parity; any other term keeps its literals."""
        if self.kind == "or" or self.target == 1:
            return self.literals
        first, *rest = self.literals
        return (Literal(first.index, not first.negated), *rest)


# The term engine both formula classes name in their bodies (so that each
# class owns the methods it runs): a conjunction of ``self.terms``, the
# constant 0 when ``self.is_false``.

def _size(self) -> int:
    return len(self.terms)


def _variables(self) -> frozenset:
    return frozenset(l.index for t in self.terms for l in t.literals)


def _evaluate(self, x) -> int:
    if self.is_false:
        return 0
    if len(x) != self.n:
        raise ValueError(f"assignment length {len(x)} != n={self.n}")
    for term in self.terms:
        if term.kind == "or":
            if not any(lit.truth(x[lit.index]) for lit in term.literals):
                return 0
        elif sum(lit.truth(x[lit.index]) for lit in term.literals) % 2 != term.target:
            return 0
    return 1


def _eval_batch(self, signs: np.ndarray) -> np.ndarray:
    if signs.shape[1] != self.n:
        raise ValueError("assignment width mismatch")
    acc = np.full(signs.shape[0], not self.is_false)
    for term in self.terms:
        if term.kind == "or":
            sat = np.zeros(signs.shape[0], dtype=bool)
            for lit in term.literals:
                sat |= signs[:, lit.index] == (-1 if lit.negated else 1)
        else:
            par = np.zeros(signs.shape[0], dtype=bool)
            for lit in term.literals:
                par ^= (signs[:, lit.index] == 1) != lit.negated
            sat = par == term.target
        acc &= sat
    return acc


def _exact_expectation(self) -> Fraction:
    """An OR of w literals on fresh variables misses with probability
    2^-w and a parity holds with probability 1/2."""
    if self.is_false:
        return Fraction(0)
    acc = Fraction(1)
    for term in self.terms:
        if term.kind == "or":
            acc *= 1 - Fraction(1, 1 << len(term.literals))
        else:
            acc *= Fraction(1, 2)
    return acc


@dataclass(frozen=True)
class ReadOnceCnf:
    """Conjunction of disjunctions in which no variable repeats: the
    all-OR case of XorCnf, sharing its term engine.

    A formula with no clauses is the constant 1; a formula collapsed by
    a falsifying restriction is the distinguished constant 0
    (``is_false``), never an empty clause.
    """

    n: int
    clauses: Tuple[Tuple[Literal, ...], ...]
    is_false: bool = False

    def __post_init__(self):
        if self.is_false:
            if self.clauses:
                raise ValueError("constant-0 formula must carry no clauses")
            return
        if any(len(c) == 0 for c in self.clauses):
            raise ValueError("clauses must be nonempty")
        _check_read_once(self.clauses, self.n)

    @classmethod
    def constant_zero(cls, n: int) -> "ReadOnceCnf":
        return cls(n=n, clauses=(), is_false=True)

    @cached_property
    def terms(self) -> Tuple[Term, ...]:
        return tuple(Term("or", c) for c in self.clauses)

    size = property(_size)
    variables = _variables
    evaluate = _evaluate
    eval_batch = _eval_batch
    exact_expectation = _exact_expectation


def tribes(width: int) -> ReadOnceCnf:
    """Read-once AND of 2^(width+1) disjoint ORs of width ``width``."""
    m = 1 << (width + 1)
    clauses = tuple(
        tuple(Literal(i * width + q) for q in range(width)) for i in range(m)
    )
    return ReadOnceCnf(n=m * width, clauses=clauses)


@dataclass(frozen=True)
class XorCnf:
    """Read-once conjunction of OR and XOR terms on disjoint variables."""

    n: int
    terms: Tuple[Term, ...]
    is_false: bool = False

    def __post_init__(self):
        if self.is_false:
            if self.terms:
                raise ValueError("constant-0 formula must carry no terms")
            return
        _check_read_once((t.literals for t in self.terms), self.n)

    @classmethod
    def constant_zero(cls, n: int) -> "XorCnf":
        return cls(n=n, terms=(), is_false=True)

    size = property(_size)
    variables = _variables
    evaluate = _evaluate
    eval_batch = _eval_batch
    exact_expectation = _exact_expectation


# ---------------------------------------------------------------------------
# Combinatorial rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombRect:
    """AND of per-coordinate predicates over m blocks of w signs.

    Each table is a bitmask over the 2^w block patterns: bit a holds
    the accept flag for the block whose big-endian packing is a.  One
    pattern is read by a shift, ``coordinate_accepts``; an array of
    patterns by one gather, ``accepts_at``.  The repr leaves the tables
    out: a wide one has more digits than ``int`` will print.
    """

    m: int
    w: int
    tables: Tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.tables) != self.m:
            raise ValueError("need one table per coordinate")
        if self.w < 0:
            raise ValueError(f"block width w must be at least 0, not {self.w}")
        # by bit length: the bound 1 << (1 << w) is 2^w bits, 128 GiB at w = 40
        if any(t < 0 or t.bit_length() > 1 << self.w for t in self.tables):
            raise ValueError(f"tables must have exactly {1 << self.w} entries")

    @property
    def n(self) -> int:
        return self.m * self.w

    def coordinate_accepts(self, i: int, block_index: int) -> int:
        return (self.tables[i] >> block_index) & 1

    def accepts_at(self, i: int, patterns: np.ndarray) -> np.ndarray:
        """Coordinate i's accept flags (bool) at an array of patterns."""
        t = self.tables[i]
        # the table's bits up to at least one clear bit past its top
        # one, so a pattern past them reads the last, clear, bit
        bits = np.unpackbits(np.frombuffer(t.to_bytes(t.bit_length() // 8 + 1, "little"),
                                           np.uint8), bitorder="little")
        return bits.take(patterns, mode="clip").astype(bool)

    def evaluate(self, x) -> int:
        if len(x) != self.n:
            raise ValueError(f"assignment length {len(x)} != m*w={self.n}")
        for i in range(self.m):
            a = pack_block(x[i * self.w:(i + 1) * self.w])
            if not self.coordinate_accepts(i, a):
                return 0
        return 1

    def eval_batch(self, signs: np.ndarray) -> np.ndarray:
        if signs.shape[1] != self.n:
            raise ValueError("assignment width mismatch")
        acc = np.ones(signs.shape[0], dtype=bool)
        for i in range(self.m):
            acc &= self.accepts_at(i, pack_blocks(signs[:, i * self.w:(i + 1) * self.w]))
        return acc

    def exact_expectation(self) -> Fraction:
        acc = Fraction(1)
        for t in self.tables:
            acc *= Fraction(t.bit_count(), 1 << self.w)
        return acc


# ---------------------------------------------------------------------------
# Read-once branching programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Robp:
    """Layered width-d branching program reading one variable per layer.

    States are (layer t, slot i) for t in 0..n, i in 0..d-1.  The start
    state is (0, 0); in the final layer slot 0 is Acc and every other
    slot is Rej.  ``next0[t][i]`` / ``next1[t][i]`` give the slot in
    layer t+1 followed on bit 0 / 1, and layer t reads variable
    ``order[t]`` (identity by default).  Rows and order may be given
    as any sequences; they are stored as tuples.
    """

    n: int
    d: int
    next0: Tuple[Tuple[int, ...], ...]
    next1: Tuple[Tuple[int, ...], ...]
    order: Tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "next0", tuple(map(tuple, self.next0)))
        object.__setattr__(self, "next1", tuple(map(tuple, self.next1)))
        order = range(self.n) if self.order is None else self.order
        object.__setattr__(self, "order", tuple(order))
        if self.d < 1:
            raise ValueError(f"a layer needs at least one slot, not d={self.d}")
        if len(self.next0) != self.n or len(self.next1) != self.n:
            raise ValueError("need one transition row per layer")
        slots = set(range(self.d))
        if any(len(row) != self.d or not slots.issuperset(row)
               for row in (*self.next0, *self.next1)):
            raise ValueError("transition rows must map d slots into d slots")
        if sorted(self.order) != list(range(self.n)):
            raise ValueError("order must be a permutation of the variables")

    ACC = 0

    @property
    def rej(self) -> int:
        return self.d - 1

    def evaluate(self, x) -> int:
        if len(x) != self.n:
            raise ValueError(f"assignment length {len(x)} != n={self.n}")
        slot = 0
        for t, var in enumerate(self.order):
            slot = (self.next1 if x[var] == 1 else self.next0)[t][slot]
        return 1 if slot == self.ACC else 0

    def walk(self, bits: np.ndarray):
        """Yield, for t = 0..n, the slot each input occupies at layer t.

        ``bits`` holds one input per row, column i set when variable i
        is true; the batch size is its row count, so n = 0 works.  Run
        over every input, this walk is the oracle the tests hold
        batch_prefix_slots, eval_all and bp3.bad_visit_counts to."""
        next0, next1, _codes = _coded_transitions((self,))
        state = np.zeros(bits.shape[0], dtype=next0.dtype)
        yield state
        for t, var in enumerate(self.order):
            state = np.where(bits[:, var], next1[t][state], next0[t][state])
            yield state

    def in_variable_order(self, table: np.ndarray) -> np.ndarray:
        """Reindex a table over the read-order packings (bit t = the bit
        layer t read) by the variable packing (bit i = variable i): a
        non-identity order permutes the axes of the (2,)*n view once."""
        if self.order == tuple(range(self.n)):
            return table
        return table.reshape((2,) * self.n, order="F").transpose(
            np.argsort(self.order)).ravel(order="F")

    def eval_all(self) -> np.ndarray:
        """Accept flags for every input, indexed by the little-endian
        bit packing of the assignment (bit i = variable i, 1 = true): the
        last prefix layer, in variable order.  The walk is the oracle."""
        for slots in batch_prefix_slots((self,)):
            pass
        return self.in_variable_order(slots[0] == self.ACC)

    def eval_batch(self, signs: np.ndarray) -> np.ndarray:
        if signs.shape[1] != self.n:
            raise ValueError("assignment width mismatch")
        for state in self.walk(signs == 1):
            pass
        return state == self.ACC

    def accept_counts(self) -> list:
        """c[t][i]: how many assignments of the variables read by layers
        t..n-1 lead from state (t, i) to Acc."""
        c = [[0] * self.d for _ in range(self.n + 1)]
        c[self.n][self.ACC] = 1
        for t in range(self.n - 1, -1, -1):
            c[t] = [c[t + 1][a] + c[t + 1][b] for a, b in zip(self.next0[t], self.next1[t])]
        return c

    def reach_counts(self) -> list:
        """r[t][i]: how many assignments of the variables read by layers
        0..t-1 lead from the start to state (t, i)."""
        r = [[0] * self.d for _ in range(self.n + 1)]
        r[0][0] = 1
        for cur, nxt, row0, row1 in zip(r, r[1:], self.next0, self.next1):
            for paths, a, b in zip(cur, row0, row1):
                nxt[a] += paths
                nxt[b] += paths
        return r

    def conditional_visit_probs(self) -> list:
        """q(v): probability a uniformly random accepted input visits v,
        (r / 2^t)(c / 2^(n-t)) / (c[0][0] / 2^n) = r c / c[0][0]."""
        c = self.accept_counts()
        if c[0][0] == 0:
            raise ValueError("conditional visit probabilities undefined: E[f] = 0")
        return [[Fraction(a * b, c[0][0]) for a, b in zip(reach, acc)]
                for reach, acc in zip(self.reach_counts(), c)]

    def exact_expectation(self) -> Fraction:
        return Fraction(self.accept_counts()[0][0], 1 << self.n)

    def is_sudden_death(self) -> bool:
        """Bottom slot absorbs into the bottom slot at every interior layer."""
        b = self.rej
        return all(
            self.next0[t][b] == b and self.next1[t][b] == b
            for t in range(1, self.n)
        )


def _coded_transitions(programs: Sequence[Robp]):
    """next0 and next1 of programs that share n and d as (n, P*d)
    arrays, plus the (P, 1) codes of their slot 0: program p's slot i
    is coded p*d + i, so entry [t, p*d + i] is the code of the slot p
    goes to from (t, i).  The dtype is the narrowest unsigned one that
    holds P*d - 1; a batch of one holds the plain rows."""
    n, d, size = programs[0].n, programs[0].d, len(programs)
    if any((prog.n, prog.d) != (n, d) for prog in programs):
        raise ValueError("a batch of programs must share n and d")
    dtype = np.min_scalar_type(size * d - 1)
    codes = np.arange(0, size * d, d, dtype=dtype)[:, None]

    def coded(rows):
        table = np.array([getattr(prog, rows) for prog in programs], dtype).reshape(size, n, d)
        return (table + codes[:, :, None]).transpose(1, 0, 2).reshape(n, size * d)
    return coded("next0"), coded("next1"), codes


def batch_prefix_slots(programs: Sequence[Robp]):
    """Yield, for t = 0..n, a (P, 2^t) array whose row p holds the slots
    of program p's 2^t prefixes read by layers 0..t-1: entry j is the
    slot reached by the prefix whose bit u is the bit layer u read.  The
    programs share n and d.  Layer t maps the 2^t prefixes to their
    2^(t+1) extensions, bit t clear then set, with one gather per bit
    value for the whole batch on the coded slots (p*d + slot): under
    2^(n+1) gathers per program and no bit matrix."""
    next0, next1, codes = _coded_transitions(programs)
    state = codes
    yield state - codes
    for t in range(programs[0].n):
        state = np.concatenate((next0[t].take(state), next1[t].take(state)), axis=1)
        yield state - codes


def and_chain_program(n: int) -> Robp:
    """Width-3 program computing the AND of all n variables."""
    return Robp(n=n, d=3, next0=((2, 2, 2),) * n, next1=((0, 2, 2),) * n)


def parity_program(n: int) -> Robp:
    """Width-3 program accepting inputs with an odd number of true bits."""
    next0 = [(0, 1, 2)] * n
    next1 = [(1, 0, 2)] * n
    # final layer: the slot holding odd parity must land on slot 0 (Acc)
    next0[-1], next1[-1] = (1, 0, 2), (0, 1, 2)
    return Robp(n=n, d=3, next0=next0, next1=next1)


# ---------------------------------------------------------------------------
# Restrictions and bias functions
# ---------------------------------------------------------------------------

def apply_restriction(f, fixed: Mapping[int, int]):
    """Fix the variables of ``fixed``, a map from variable index to sign;
    satisfied conjuncts drop out and a falsified conjunct collapses the
    formula to constant 0.  The terms are restricted once and the
    input's class is rebuilt.  A key outside [0, n) or a sign other
    than +-1 raises ValueError."""
    if not isinstance(f, (ReadOnceCnf, XorCnf)):
        raise TypeError(f"cannot restrict {type(f).__name__}")
    for i, s in fixed.items():
        if not 0 <= i < f.n:
            raise ValueError(f"restricted index {i} outside [0,{f.n})")
        if s not in (-1, 1):
            raise ValueError(f"restriction sign of {i} must be -1 or +1, not {s!r}")
    if f.is_false:
        return f
    terms = []
    for term in f.terms:
        keep = tuple(lit for lit in term.literals if lit.index not in fixed)
        truths = [lit.truth(fixed[lit.index]) for lit in term.literals if lit.index in fixed]
        if term.kind == "or":
            if any(truths):
                continue
            target = 1
        else:
            target = term.target ^ (sum(truths) & 1)
            if not keep and target == 0:
                continue
        if not keep:
            return type(f).constant_zero(f.n)
        terms.append(Term(term.kind, keep, target))
    if isinstance(f, ReadOnceCnf):
        return ReadOnceCnf(n=f.n, clauses=tuple(t.literals for t in terms))
    return XorCnf(n=f.n, terms=tuple(terms))


def bias_function(f, fixed: Mapping[int, int]) -> Fraction:
    """E over uniform completions of f with the variables of ``fixed`` set."""
    return apply_restriction(f, fixed).exact_expectation()
