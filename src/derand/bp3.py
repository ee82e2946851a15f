"""Width-3 branching program pipeline: hitting generator and reductions.

The reduction chain turns a width-3 program with noticeable acceptance
into a conjunction of ORs and parities accepting a subset of its
inputs:

1. shift the start along a zero prefix and convert one state per layer
   to reject, producing a sudden-death program (bottom row absorbing);
2. reject the rarely-visited bad states, exhaustively fix the variables
   read by the frequently-visited ones, and cut the result into
   width-2 segments at layers where a single live state survives;
3. convert each segment to a decision list by a backward layer scan and
   extract either an OR of its exit literals or one reach-AND plus a
   parity leaf.

Every existential step of the analysis (the arrival layer, the fixing)
is replaced by an exact argmax with deterministic tie-breaking.  The
chain reads a program's integer path counts (``Robp.accept_counts``
and ``Robp.reach_counts``); a ``Fraction`` is formed only for a
reported value or a checked bound.  Every edge the chain rewires goes
through one step, ``_redirect``.  ``bad_visit_counts``, how many bad
states each input visits, runs on ``models.batch_prefix_slots`` over a
batch of one and is kept for criterion 7, which checks the lemma
Pr[Bad(x) >= t] <= 2^(1-t) and the bound on E[Bad(x) | accepted] on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .models import Literal, Robp, Term, XorCnf, batch_prefix_slots
from .rcnf_prg import hsg_inner_preset, sample
from .signs import SignVector, all_sign_rows, split_seeds


class BoundViolation(ValueError):
    """A proven bound or invariant of the reduction chain failed; raised
    in every interpreter mode, ``python -O`` included."""


def _require(ok: bool, bound: str) -> None:
    if not ok:
        raise BoundViolation(bound)


# ---------------------------------------------------------------------------
# Program surgery helpers
# ---------------------------------------------------------------------------

def relabel_layers(prog: Robp, perms: Dict[int, List[int]]) -> Robp:
    """Apply the slot permutation perms[t] (perms[t][old] = new) to each
    layer t in ``perms``; every other layer keeps its slots.

    The final layer's Acc slot must stay fixed; permuting layer 0
    changes which state acts as the start (used deliberately when
    re-rooting a program).
    """
    perm = [perms.get(t, range(prog.d)) for t in range(prog.n + 1)]
    if perm[prog.n][0] != 0:
        raise ValueError("relabeling must fix the accept slot")
    next0 = [[0] * prog.d for _ in range(prog.n)]
    next1 = [[0] * prog.d for _ in range(prog.n)]
    for t in range(prog.n):
        for i in range(prog.d):
            next0[t][perm[t][i]] = perm[t + 1][prog.next0[t][i]]
            next1[t][perm[t][i]] = perm[t + 1][prog.next1[t][i]]
    return Robp(prog.n, prog.d, next0, next1, prog.order)


def _redirect(prog: Robp, edges: Dict[Tuple[int, int], int]) -> Robp:
    """The program with both out-edges of each state (t, slot) sent to
    the layer-(t+1) slot ``edges[t, slot]``: the chain's one row edit."""
    next0 = [list(r) for r in prog.next0]
    next1 = [list(r) for r in prog.next1]
    for (t, slot), tgt in edges.items():
        next0[t][slot] = next1[t][slot] = tgt
    return Robp(prog.n, prog.d, next0, next1, prog.order)


def sort_interior_layers(prog: Robp, score) -> Robp:
    """Relabel interior layers so slots are ordered by descending score
    (score[t][i]); ties keep the original slot order."""
    perms = {}
    for t in range(1, prog.n):
        ranked = sorted(range(prog.d), key=lambda i: (-score[t][i], i))
        perms[t] = [0] * prog.d
        for new, old in enumerate(ranked):
            perms[t][old] = new
    return relabel_layers(prog, perms)


def make_rejecting(prog: Robp, states) -> Robp:
    """Convert the given (layer, slot) states into rejecting states by
    redirecting their out-edges into a rejecting chain.

    Each converted state needs a next-layer target that is itself
    converted or already has zero acceptance; the callers' conversion
    sets are built so such a chain exists.
    """
    states = set(states)
    c = prog.accept_counts()
    edges = {}
    for (t, slot) in sorted(states):
        if t == prog.n:
            if slot == prog.ACC:
                raise ValueError("cannot convert the accept state")
            continue  # final-layer non-accept slots already reject
        cands = [i for i in range(prog.d) if (t + 1, i) in states]
        cands += [i for i in range(prog.d) if c[t + 1][i] == 0]
        if not cands:
            raise ValueError(f"no rejecting target below layer {t}")
        edges[t, slot] = min(cands)
    return _redirect(prog, edges)


def normalize_sudden_death(prog: Robp) -> Robp:
    """Rewire one zero-acceptance state per interior layer into an
    absorbing bottom chain and relabel it to the bottom slot.

    Requires every interior layer to contain a dead state; preserves
    the computed function exactly (dead states may be rewired freely
    to other dead states).
    """
    c = prog.accept_counts()
    bottom = prog.d - 1
    dead_slot = [0] * (prog.n + 1)
    for t in range(1, prog.n):
        deads = [i for i in range(prog.d) if c[t][i] == 0]
        if not deads:
            raise ValueError(f"layer {t} has no rejecting state to anchor")
        dead_slot[t] = bottom if c[t][bottom] == 0 else deads[0]
    rewired = _redirect(prog, {(t, dead_slot[t]): dead_slot[t + 1] if t + 1 < prog.n else bottom
                               for t in range(1, prog.n)})
    perms = {}
    for t in range(1, prog.n):
        if dead_slot[t] != bottom:
            perms[t] = list(range(prog.d))
            perms[t][dead_slot[t]], perms[t][bottom] = bottom, dead_slot[t]
    out = relabel_layers(rewired, perms)
    _require(out.is_sudden_death(), "normalized program is not sudden-death")
    return out


def suffix_program(prog: Robp, k: int, start_slot: int) -> Robp:
    """The program on layers k..n started at the given layer-k slot.

    Variables are renumbered positionally (the new program reads its
    inputs in order); the caller keeps the mapping to original inputs.
    """
    perm0 = list(range(prog.d))
    perm0[start_slot], perm0[0] = 0, start_slot
    shifted = Robp(n=prog.n - k, d=prog.d, next0=prog.next0[k:], next1=prog.next1[k:])
    return relabel_layers(shifted, {0: perm0})


# ---------------------------------------------------------------------------
# Stage 1: reduction to sudden death
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuddenDeathResult:
    k: int
    program: Robp      # sudden-death, on n-k positionally renumbered variables
    expectation: Fraction
    source_expectation: Fraction
    arrival_layer: int
    cut_layer: int


def first_top_arrival(prog: Robp) -> List[int]:
    """q[j] = how many of the 2^n inputs first occupy slot 0 at layer j
    (slot 0 of layers >= 1 is the top level).  With the top made
    absorbing, top[j] = reach_counts()[j][0] j-bit prefixes have met it,
    two per earlier one, so q[j] = (top[j] - 2 top[j-1]) 2^(n-j) for
    j >= 2 and q[1] = top[1] 2^(n-1)."""
    absorbing = _redirect(prog, {(t, 0): 0 for t in range(1, prog.n)})
    top = [r[0] for r in absorbing.reach_counts()]
    return [0] + [(top[j] - 2 * top[j - 1] if j > 1 else top[1]) << (prog.n - j)
                  for j in range(1, prog.n + 1)]


def sudden_death_reduce(f: Robp, epsilon) -> SuddenDeathResult:
    """Zero-prefix shift plus one conversion per layer, per the chain:
    sort by acceptance probability, cut where the bottom drops below
    epsilon/2, kill top states before the best first-arrival layer and
    bottom states after it."""
    eps = Fraction(epsilon)
    if f.n < 1:
        raise ValueError("the reduction chain expects a program of at least one layer")
    if f.d < 2:  # from d = 2 on, layer n's bottom slot rejects and meets the cut test
        raise ValueError(f"the reduction chain expects a program of width at least 2, not {f.d}")
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], not {epsilon}")
    e_src = f.exact_expectation()
    if e_src < eps:
        raise ValueError(f"acceptance {e_src} below the threshold {eps}")
    fs = sort_interior_layers(f, f.accept_counts())
    c = fs.accept_counts()
    bottom = fs.d - 1
    lstar = next(t for t in range(1, fs.n + 1) if c[t][bottom] <= eps / 2 * (1 << (fs.n - t)))
    k = lstar - 1
    slot = 0
    for t in range(k):
        slot = fs.next0[t][slot]
    bp = suffix_program(fs, k, slot)
    q = first_top_arrival(bp)
    jstar = max(range(1, bp.n + 1), key=lambda j: (q[j], -j))
    conv = {(t, 0) for t in range(1, jstar)}
    conv |= {(t, bottom) for t in range(jstar, bp.n)}
    converted = make_rejecting(bp, conv)
    g = normalize_sudden_death(converted)
    e_g = g.exact_expectation()
    _require(e_g >= eps * eps / (4 * f.n), "sudden-death acceptance below eps^2/(4n)")
    return SuddenDeathResult(k=k, program=g, expectation=e_g,
                             source_expectation=e_src, arrival_layer=jstar, cut_layer=lstar)


# ---------------------------------------------------------------------------
# Bad-state analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BadStateReport:
    program: Robp              # q-sorted sudden-death program
    bad: FrozenSet[Tuple[int, int]]
    bad_small: FrozenSet[Tuple[int, int]]
    bad_large: FrozenSet[Tuple[int, int]]
    q: tuple                   # q[t][i]
    expectation: Fraction


def pow2_leq(x: Fraction, bound: Fraction) -> bool:
    """Exact test of 2^x <= bound for rational x and positive bound."""
    x = Fraction(x)
    bound = Fraction(bound)
    if bound <= 0:
        return False
    a, b = x.numerator, x.denominator  # b > 0 by normalization
    if a >= 0:
        return Fraction(2) ** a <= bound**b
    return Fraction(1) <= bound**b * Fraction(2) ** (-a)


def bad_states(prog: Robp) -> FrozenSet[Tuple[int, int]]:
    """States with positive acceptance and an out-edge into a dead state."""
    c = prog.accept_counts()
    out = set()
    for t in range(prog.n):
        for i in range(prog.d):
            if c[t][i] == 0:
                continue
            if c[t + 1][prog.next0[t][i]] == 0 or c[t + 1][prog.next1[t][i]] == 0:
                out.add((t, i))
    return frozenset(out)


def bad_state_analysis(g: Robp) -> BadStateReport:
    """Partition the bad states of a sudden-death program by conditional
    visit probability at the 1/4 threshold, after q-sorting layers."""
    if not g.is_sudden_death():
        raise ValueError("bad-state analysis expects a sudden-death program")
    e = g.exact_expectation()
    if e == 0:
        raise ValueError("bad-state analysis undefined at zero acceptance")
    # r c orders each layer as q = r c / c[0][0] does
    visits = [[a * b for a, b in zip(r, c)] for r, c in zip(g.reach_counts(), g.accept_counts())]
    gs = sort_interior_layers(g, visits)
    _require(gs.is_sudden_death(), "q-sorted program is not sudden-death")
    q = gs.conditional_visit_probs()
    bad = bad_states(gs)
    small = frozenset(v for v in bad if q[v[0]][v[1]] < Fraction(1, 4))
    large = bad - small
    # |bad_large| <= 8 log2(2/e), exactly: 2^(|large|/8) <= 2/e
    _require(pow2_leq(Fraction(len(large), 8), 2 / e), "large-bad count above 8 log2(2/E)")
    return BadStateReport(program=gs, bad=bad, bad_small=small, bad_large=large,
                          q=tuple(tuple(row) for row in q), expectation=e)


def bad_visit_counts(prog: Robp) -> np.ndarray:
    """Bad(x) for every input (indexed by little-endian bit packing):
    layer t's bad-slot flags over the 2^t prefixes, tiled 2^(n-t) times
    (an input extends its low t read bits), summed in read order."""
    bad = bad_states(prog)
    counts = np.zeros(1 << prog.n, dtype=np.int16)
    for t, (slots,) in enumerate(batch_prefix_slots((prog,))):
        is_bad = np.array([(t, i) in bad for i in range(prog.d)])
        counts += np.tile(is_bad[slots], 1 << (prog.n - t))
    return prog.in_variable_order(counts)


# ---------------------------------------------------------------------------
# Stage 2: sudden death to intersections of width-2 programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Width2Bp:
    """A pure width-2 read-once program over named variables.

    ``layers[t][s][b]`` is the next state (0/1) from state s on bit b;
    the input is accepted when the final state equals ``accept``.
    """

    variables: Tuple[int, ...]
    start: int
    layers: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    accept: int

    def __post_init__(self):
        if len(self.layers) != len(self.variables):
            raise ValueError("one layer per read variable required")
        if self.start not in (0, 1) or self.accept not in (0, 1):
            raise ValueError("start and accept must be the two states 0/1")
        for layer in self.layers:
            for row in layer:
                if any(tgt not in (0, 1) for tgt in row):
                    raise ValueError("width-2 transitions must stay within two states")

    def evaluate_bits(self, bits: Dict[int, int]) -> int:
        s = self.start
        for var, layer in zip(self.variables, self.layers):
            s = layer[s][bits[var]]
        return 1 if s == self.accept else 0


@dataclass(frozen=True)
class IntersectionResult:
    fixed_bits: Dict[int, int]        # variable -> forced bit
    segments: Tuple[Width2Bp, ...]
    expectation: Fraction             # of the conjunction, literals included
    report: BadStateReport


def hardwire(prog: Robp, forced: Dict[int, int]) -> Robp:
    """The layer reading a forced variable follows only the forced edge."""
    return _redirect(prog, {(t, i): (prog.next1 if forced[var] else prog.next0)[t][i]
                            for t, var in enumerate(prog.order) if var in forced
                            for i in range(prog.d)})


MAX_FIXED_VARS = 20


def intersection_reduce(g: Robp) -> IntersectionResult:
    """Kill the rarely-visited bad states, exhaustively pick the best
    fixing of the variables read by the frequently-visited ones, and
    carve the hardwired program into width-2 segments."""
    report = bad_state_analysis(g)
    gs = report.program
    p_before = gs.exact_expectation()
    b1 = make_rejecting(gs, report.bad_small)
    e1 = b1.exact_expectation()
    # provable survival: the product form of the conditional avoidance
    survival = Fraction(1)
    for (t, i) in sorted(report.bad_small):
        survival *= 1 - Fraction(4, 3) * report.q[t][i]
    _require(e1 >= p_before * survival,
             "small-bad conversion below E * prod (1 - 4q/3)")

    fix_vars = sorted({gs.order[t] for (t, _i) in report.bad_large})
    if len(fix_vars) > MAX_FIXED_VARS:
        raise ValueError(f"{len(fix_vars)} fixing variables exceed the exhaustive limit")
    best_bits: Dict[int, int] = {}
    best_e = Fraction(-1)
    for mask in range(1 << len(fix_vars)):
        forced = {v: (mask >> idx) & 1 for idx, v in enumerate(fix_vars)}
        e = hardwire(b1, forced).exact_expectation()
        if e > best_e:
            best_e, best_bits = e, forced
    b2 = hardwire(b1, best_bits)
    _require(best_e >= e1, "argmax fixing below the averaging bound")
    e_total = best_e * Fraction(1, 1 << len(fix_vars))
    p = g.exact_expectation()
    _require(e_total >= (p / 2) ** 13, "intersection acceptance below (p/2)^13")
    segments = carve_segments(b2)
    return IntersectionResult(fixed_bits=best_bits, segments=tuple(segments),
                              expectation=e_total, report=report)


def carve_segments(prog: Robp) -> List[Width2Bp]:
    """Cut at every layer with at most one live (reachable, accepting)
    state; between cuts exactly two states live and no live edge leads
    to a dead state, so each piece is a pure width-2 program."""
    live = [[i for i in range(prog.d) if acc[i] and reach[i]]
            for reach, acc in zip(prog.reach_counts(), prog.accept_counts())]
    if not live[0]:
        raise ValueError("zero-acceptance program cannot be decomposed")
    if any(len(states) > 2 for states in live):
        raise ValueError("more than two live states per layer; not width-2 carvable")
    cuts = [t for t in range(prog.n + 1) if len(live[t]) <= 1]
    _require(0 in cuts and prog.n in cuts, "carving cuts miss the first or last layer")
    segments = []
    for ca, cb in zip(cuts, cuts[1:]):
        entry = live[ca][0]
        exit_state = live[cb][0]
        variables = tuple(prog.order[t] for t in range(ca, cb))
        layers = []
        for t in range(ca, cb):
            cur = live[t] if len(live[t]) == 2 else [live[t][0], live[t][0]]
            rows = []
            for s in (0, 1):
                slot = cur[s]
                row = []
                for table in (prog.next0, prog.next1):
                    u = table[t][slot]
                    if t + 1 == cb:
                        row.append(1 if u == exit_state else 0)
                    else:
                        _require(u in live[t + 1],
                                 "live state feeds a dead state inside a segment")
                        row.append(live[t + 1].index(u))
                rows.append((row[0], row[1]))
            layers.append((rows[0], rows[1]))
        seg_accept = 1 if cb < prog.n or exit_state == prog.ACC else 0
        segments.append(Width2Bp(variables=variables, start=0,
                                 layers=tuple(layers), accept=seg_accept))
    return segments


# ---------------------------------------------------------------------------
# Stage 3: width-2 programs to decision lists to OR/parity terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityLeaf:
    """XOR of variable bits plus a constant bit."""

    variables: FrozenSet[int]
    constant: int

    def evaluate_bits(self, bits: Dict[int, int]) -> int:
        acc = self.constant
        for v in self.variables:
            acc ^= bits[v]
        return acc

    def is_constant(self, value: int) -> bool:
        return not self.variables and self.constant == value

    def expectation(self) -> Fraction:
        return Fraction(1, 2) if self.variables else Fraction(self.constant)


@dataclass(frozen=True)
class DecisionList:
    """Sequential literal tests with parity-or-constant leaves.

    Node j tests its variable against the exit bit; on a match the
    value is node j's leaf, otherwise the scan continues, falling
    through to the default leaf.
    """

    nodes: Tuple[Tuple[int, int, ParityLeaf], ...]  # (variable, exit bit, leaf)
    default: ParityLeaf

    def evaluate_bits(self, bits: Dict[int, int]) -> int:
        for var, exit_bit, leaf in self.nodes:
            if bits[var] == exit_bit:
                return leaf.evaluate_bits(bits)
        return self.default.evaluate_bits(bits)

    def expectation(self) -> Fraction:
        acc = Fraction(0)
        weight = Fraction(1)
        for _var, _bit, leaf in self.nodes:
            acc += weight * Fraction(1, 2) * leaf.expectation()
            weight /= 2
        return acc + weight * self.default.expectation()


def width2_to_decision_list(h: Width2Bp) -> DecisionList:
    """Backward layer scan: permutation layers fold into the pending
    parity, a single-bit collapse appends a node whose leaf snapshots
    the pending parity at the collapse target, and a full collapse
    absorbs the variable into the parity and drops the state
    dependence.  Nodes therefore test variables in reverse read order;
    equivalence with the program is exact."""
    parity: set = set()
    const = 1 ^ h.accept  # leaf value = s XOR (1 XOR accept)
    gamma = 1
    nodes: List[Tuple[int, int, ParityLeaf]] = []
    for var, layer in zip(reversed(h.variables), reversed(h.layers)):
        if gamma == 0:
            continue
        maps = [(layer[0][b], layer[1][b]) for b in (0, 1)]
        perm = [m[0] != m[1] for m in maps]
        a = [m[0] for m in maps]  # shift when perm, target when collapse
        if perm[0] == perm[1]:  # both bits permute, or both collapse
            const ^= a[0]
            if a[0] != a[1]:
                parity ^= {var}
            gamma = int(perm[0])
        else:
            beta = 0 if not perm[0] else 1
            leaf = ParityLeaf(variables=frozenset(parity), constant=const ^ a[beta])
            nodes.append((var, beta, leaf))
            const ^= a[1 - beta]
    if gamma:
        const ^= h.start
    return DecisionList(nodes=tuple(nodes), default=ParityLeaf(frozenset(parity), const))


def _exit_literal(var: int, exit_bit: int) -> Literal:
    return Literal(var, negated=(exit_bit == 0))


def _continue_literal(var: int, exit_bit: int) -> Literal:
    return Literal(var, negated=(exit_bit == 1))


@dataclass(frozen=True)
class TermExtraction:
    terms: Tuple[Term, ...]
    expectation: Fraction       # of the conjunction of the terms
    source_expectation: Fraction
    branch: str                 # "or", "and-xor", "one", "zero"


def dl_to_cnfx(dl: DecisionList) -> TermExtraction:
    """Extract a below-approximation of the list as conjunction terms.

    At expectation >= 5/6 the list's leading leaves are constant 1 and
    the OR of the exit literals in front of the first other leaf keeps
    expectation at least E^9.  Otherwise reaching the first leaf that
    is not constant 0 (an AND of literals, plus the leaf parity) keeps
    at least E/3.
    """
    e = dl.expectation()
    if e >= Fraction(5, 6):
        exits = []
        for var, bit, leaf in dl.nodes:
            if leaf.is_constant(1):
                exits.append(_exit_literal(var, bit))
            else:
                break
        else:
            if dl.default.is_constant(1):
                return TermExtraction(terms=(), expectation=Fraction(1),
                                      source_expectation=e, branch="one")
        _require(bool(exits), "non-1 first leaf at expectation >= 5/6")
        g_e = 1 - Fraction(1, 1 << len(exits))
        _require(g_e >= e**9, "OR extraction below E^9")
        return TermExtraction(terms=(Term("or", tuple(exits)),),
                              expectation=g_e, source_expectation=e, branch="or")
    # highest leaf that is not constant 0
    reach: List[Literal] = []
    chosen: Optional[ParityLeaf] = None
    for var, bit, leaf in dl.nodes:
        if leaf.is_constant(0):
            reach.append(_continue_literal(var, bit))
            continue
        reach.append(_exit_literal(var, bit))
        chosen = leaf
        break
    else:
        if dl.default.is_constant(0):
            return TermExtraction(terms=(), expectation=Fraction(0),
                                  source_expectation=e, branch="zero")
        chosen = dl.default
    terms = tuple(Term("or", (lit,)) for lit in reach)
    h_e = Fraction(1, 1 << len(reach))
    if chosen.variables:
        terms += (Term("xor", tuple(Literal(v) for v in sorted(chosen.variables)),
                       target=1 ^ chosen.constant),)
        h_e /= 2
    else:
        _require(chosen.constant == 1, "variable-free leaf is not constant 1")
    _require(h_e >= e / 3, "AND-parity extraction below E/3")
    return TermExtraction(terms=terms, expectation=h_e,
                          source_expectation=e, branch="and-xor")


# ---------------------------------------------------------------------------
# The full chain and its certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionCertificate:
    k: int
    formula: XorCnf                 # over the n-k suffix variables, in read order
    read_order: Tuple[int, ...]     # original variable of each source layer
    source_expectation: Fraction
    formula_expectation: Fraction
    provenance: dict = field(compare=False)

    def verify_subset(self, f: Robp) -> bool:
        """Exhaustively check accepted suffixes map into f's acceptance."""
        n2 = self.formula.n
        signs = all_sign_rows(n2)
        good = self.formula.eval_batch(signs)
        if not good.any():
            return self.formula_expectation == 0
        full = np.full((int(good.sum()), f.n), -1, dtype=np.int8)
        sel = signs[good]
        for t in range(n2):
            full[:, self.read_order[self.k + t]] = sel[:, t]
        for t in range(self.k):
            full[:, self.read_order[t]] = -1
        return bool(f.eval_batch(full).all())


def full_reduce(f: Robp, epsilon) -> ReductionCertificate:
    """Chain the three stages and assemble the certificate formula."""
    if not isinstance(f, Robp) or f.d != 3:
        raise ValueError("the reduction chain expects width-3 programs")
    stage1 = sudden_death_reduce(f, epsilon)
    inter = intersection_reduce(stage1.program)
    terms: List[Term] = []
    branches = []
    segment_bound = Fraction(1)
    for var, bit in sorted(inter.fixed_bits.items()):
        terms.append(Term("or", (Literal(var, negated=(bit == 0)),)))
        segment_bound /= 2
    for seg in inter.segments:
        dl = width2_to_decision_list(seg)
        ext = dl_to_cnfx(dl)
        branches.append(ext.branch)
        _require(ext.branch != "zero", "a zero segment contradicts positive acceptance")
        terms.extend(ext.terms)
        segment_bound *= ext.expectation
    formula = XorCnf(n=stage1.program.n, terms=tuple(terms))
    e_formula = formula.exact_expectation()
    _require(e_formula == segment_bound, "formula expectation differs from the segment product")
    _require(e_formula > 0, "formula expectation is not positive")
    cert = ReductionCertificate(
        k=stage1.k, formula=formula, read_order=f.order,
        source_expectation=stage1.source_expectation,
        formula_expectation=e_formula,
        provenance={
            "arrivalLayer": stage1.arrival_layer,
            "cutLayer": stage1.cut_layer,
            "suddenDeathExpectation": str(stage1.expectation),
            "badSmall": sorted(inter.report.bad_small),
            "badLarge": sorted(inter.report.bad_large),
            "fixedBits": {str(v): b for v, b in sorted(inter.fixed_bits.items())},
            "segmentBranches": branches,
            "intersectionExpectation": str(inter.expectation),
        },
    )
    return cert


def pipeline_exponent(cert: ReductionCertificate, n: int) -> float:
    """The achieved exponent c with E[g] = (E[f]/n)^c, reported per
    instance instead of trusting a composed constant."""
    base = float(cert.source_expectation) / n
    if cert.formula_expectation <= 0 or base >= 1:
        return math.inf
    return math.log(float(cert.formula_expectation)) / math.log(base)


# ---------------------------------------------------------------------------
# Hitting set generator
# ---------------------------------------------------------------------------

def hsg_prefix_bits(n: int) -> int:
    """Width of the low seed field that codes the zero-prefix length."""
    return max(1, (n - 1).bit_length())


def hsg_prefix_length(n: int, seed: int) -> int:
    """The zero-prefix length a seed codes: its low hsg_prefix_bits(n)
    bits reduced mod n (the decode bias at small n is measured by the
    harness, not ignored)."""
    return (seed & ((1 << hsg_prefix_bits(n)) - 1)) % n


def _hsg_seed_widths(n: int) -> tuple:
    """Seed field widths, lowest first: the prefix code, then the inner seed."""
    return hsg_prefix_bits(n), hsg_inner_preset(n).seed_bits


def hsg_seed_bits(n: int) -> int:
    return sum(_hsg_seed_widths(n))


def hsg_sample(n: int, epsilon, seed: int) -> SignVector:
    """Zero prefix of length ``hsg_prefix_length(n, seed)``, then the
    parity-CNF generator's output truncated to the remaining positions.

    The inner generator is ``hsg_inner_preset(n)`` whatever ``epsilon``
    is; the argument stays for positional callers.
    """
    (code,), (inner_seed,) = split_seeds(_hsg_seed_widths(n), [seed])
    r = hsg_prefix_length(n, code)
    inner = sample(hsg_inner_preset(n), inner_seed)
    return SignVector((-1,) * r + inner.values[: n - r])
