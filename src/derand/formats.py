"""Line-oriented text and JSON serialization for the model classes.

Text format, one object per file:

    rcnf <n> <m>        clauses as signed 1-based ints, 0-terminated
    xorcnf <n> <m>      OR terms as above, XOR terms prefixed ``x``
    rect <m> <w>        one hex bitmap per coordinate (bit a = accept
                        flag of block pattern a, least digit last)
    robp <n> <d>        ``t state bit -> state`` transition lines with
                        1-based layers and states, optional
                        ``order ...`` line (1-based variables)

Lines starting with ``c`` are comments.  Parsers reject read-once /
disjointness violations with a line-numbered diagnostic.
"""

from __future__ import annotations

import json

from .models import CombRect, Literal, ReadOnceCnf, Robp, Term, XorCnf


class FormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _body_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.split()[0] == "c":
            continue
        yield no, line


def _parse_literals(no: int, fields, n: int):
    if not fields or fields[-1] != "0":
        raise FormatError(no, "clause line must end with 0")
    lits = []
    for tok in fields[:-1]:
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(no, f"non-integer literal {tok!r}") from None
        if v == 0 or abs(v) > n:
            raise FormatError(no, f"literal {v} outside 1..{n}")
        lits.append(Literal(abs(v) - 1, v < 0))
    if not lits:
        raise FormatError(no, "empty clause")
    return tuple(lits)


def loads(text: str):
    """Parse one model object from text; dispatches on the header."""
    lines = list(_body_lines(text))
    if not lines:
        raise FormatError(0, "empty input")
    no, header = lines[0]
    fields = header.split()
    kind = fields[0]
    if kind in ("rcnf", "xorcnf"):
        return _load_cnf(no, fields, lines[1:])
    if kind == "rect":
        return _load_rect(no, fields, lines[1:])
    if kind == "robp":
        return _load_robp(no, fields, lines[1:])
    raise FormatError(no, f"unknown header {kind!r}")


def _load_cnf(no, fields, body):
    """A read-once CNF's body is a parity-CNF body with OR terms only."""
    kind = fields[0]
    try:
        n, m = int(fields[1]), int(fields[2])
    except (IndexError, ValueError):
        raise FormatError(no, f"header must be '{kind} n m'") from None
    terms = []
    for lno, line in body:
        toks = line.split()
        xor = kind == "xorcnf" and toks[0] == "x"
        lits = _parse_literals(lno, toks[1:] if xor else toks, n)
        terms.append(Term("xor" if xor else "or", lits))
    if len(terms) != m:
        noun = "clauses" if kind == "rcnf" else "terms"
        raise FormatError(no, f"declared {m} {noun}, found {len(terms)}")
    try:
        if kind == "rcnf":
            return ReadOnceCnf(n=n, clauses=tuple(t.literals for t in terms))
        return XorCnf(n=n, terms=tuple(terms))
    except ValueError as exc:
        raise FormatError(no, str(exc)) from None


def _load_rect(no, fields, body):
    try:
        m, w = int(fields[1]), int(fields[2])
    except (IndexError, ValueError):
        raise FormatError(no, "header must be 'rect m w'") from None
    if w < 0:
        raise FormatError(no, f"block width w must be at least 0, not {w}")
    digits = max(1, (1 << w) // 4 + (1 if (1 << w) % 4 else 0))
    tables = []
    for lno, line in body:
        tok = line.split()[0]
        try:
            val = int(tok, 16)
        except ValueError:
            raise FormatError(lno, f"bad hex bitmap {tok!r}") from None
        if len(tok) != digits:
            raise FormatError(lno, f"bitmap must have exactly {digits} hex digits")
        if val >> (1 << w):
            raise FormatError(lno, "bitmap wider than 2^w entries")
        tables.append(val)
    if len(tables) != m:
        raise FormatError(no, f"declared {m} coordinates, found {len(tables)}")
    return CombRect(m=m, w=w, tables=tuple(tables))


def _load_robp(no, fields, body):
    try:
        n, d = int(fields[1]), int(fields[2])
    except (IndexError, ValueError):
        raise FormatError(no, "header must be 'robp n d'") from None
    next0 = [[None] * d for _ in range(n)]
    next1 = [[None] * d for _ in range(n)]
    order = None
    for lno, line in body:
        toks = line.split()
        if toks[0] == "order":
            if len(toks) != n + 1:
                raise FormatError(lno, f"order line needs {n} variables")
            order = tuple(int(t) - 1 for t in toks[1:])
            continue
        if len(toks) != 5 or toks[3] != "->":
            raise FormatError(lno, "expected 't state bit -> state'")
        try:
            t, st, bit, tgt = int(toks[0]), int(toks[1]), int(toks[2]), int(toks[4])
        except ValueError:
            raise FormatError(lno, "non-integer transition field") from None
        if not 1 <= t <= n:
            raise FormatError(lno, f"layer {t} outside 1..{n}")
        if not 1 <= st <= d or not 1 <= tgt <= d:
            raise FormatError(lno, f"state outside 1..{d}")
        if bit not in (0, 1):
            raise FormatError(lno, "bit must be 0 or 1")
        table = next1 if bit else next0
        if table[t - 1][st - 1] is not None:
            raise FormatError(lno, "duplicate transition")
        table[t - 1][st - 1] = tgt - 1
    for t in range(n):
        for i in range(d):
            if next0[t][i] is None or next1[t][i] is None:
                raise FormatError(no, f"missing transition for layer {t + 1} state {i + 1}")
    try:
        return Robp(n, d, next0, next1, order)
    except ValueError as exc:
        raise FormatError(no, str(exc)) from None


def dumps(obj) -> str:
    """Render a model object in the text format (inverse of loads)."""
    if isinstance(obj, (ReadOnceCnf, XorCnf)):
        if obj.is_false:
            raise ValueError("the constant-0 formula has no file form")
        kind = "rcnf" if isinstance(obj, ReadOnceCnf) else "xorcnf"
        lines = [f"{kind} {obj.n} {obj.size}"]
        for term in obj.terms:
            lits = term.literals
            if term.kind == "xor" and term.target == 0:
                # the text form fixes target 1; flipping one literal's
                # negation complements the parity
                first = lits[0]
                lits = (Literal(first.index, not first.negated),) + lits[1:]
            prefix = "x " if term.kind == "xor" else ""
            lines.append(prefix + " ".join(str(lit) for lit in lits) + " 0")
        return "\n".join(lines) + "\n"
    if isinstance(obj, CombRect):
        digits = max(1, (1 << obj.w) // 4 + (1 if (1 << obj.w) % 4 else 0))
        lines = [f"rect {obj.m} {obj.w}"]
        for t in obj.tables:
            lines.append(format(t, f"0{digits}x"))
        return "\n".join(lines) + "\n"
    if isinstance(obj, Robp):
        lines = [f"robp {obj.n} {obj.d}"]
        if obj.order != tuple(range(obj.n)):
            lines.append("order " + " ".join(str(v + 1) for v in obj.order))
        for t in range(obj.n):
            for i in range(obj.d):
                lines.append(f"{t + 1} {i + 1} 0 -> {obj.next0[t][i] + 1}")
                lines.append(f"{t + 1} {i + 1} 1 -> {obj.next1[t][i] + 1}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# JSON mirror
# ---------------------------------------------------------------------------

def _lit_json(lit: Literal) -> int:
    return -(lit.index + 1) if lit.negated else lit.index + 1


def _int(value, field: str) -> int:
    """A JSON integer field; a bool or a float is refused, not read as an int."""
    if type(value) is not int:
        raise FormatError(0, f"field {field!r} holds {json.dumps(value)}, not an integer")
    return value


def _lit_from_json(v, n: int, field: str) -> Literal:
    v = _int(v, field)
    if v == 0 or abs(v) > n:
        raise ValueError(f"literal {v} outside 1..{n}")
    return Literal(abs(v) - 1, v < 0)


def to_json(obj) -> dict:
    if isinstance(obj, ReadOnceCnf):
        return {"type": "rcnf", "n": obj.n,
                "clauses": [[_lit_json(l) for l in c] for c in obj.clauses]}
    if isinstance(obj, XorCnf):
        return {"type": "xorcnf", "n": obj.n,
                "terms": [{"kind": t.kind, "lits": [_lit_json(l) for l in t.literals],
                           **({"target": t.target} if t.kind == "xor" else {})}
                          for t in obj.terms]}
    if isinstance(obj, CombRect):
        return {"type": "rect", "m": obj.m, "w": obj.w,
                "tables": [format(t, "x") for t in obj.tables]}
    if isinstance(obj, Robp):
        return {"type": "robp", "n": obj.n, "d": obj.d,
                "order": [v + 1 for v in obj.order],
                "next0": [list(r) for r in obj.next0],
                "next1": [list(r) for r in obj.next1]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_json(data: dict):
    """Inverse of ``to_json``; a missing or ill-typed field raises FormatError."""
    kind = data.get("type")
    try:
        if kind == "rcnf":
            n = _int(data["n"], "n")
            return ReadOnceCnf(n=n, clauses=tuple(
                tuple(_lit_from_json(v, n, "clauses") for v in c) for c in data["clauses"]))
        if kind == "xorcnf":
            n = _int(data["n"], "n")
            return XorCnf(n=n, terms=tuple(
                Term(t["kind"], tuple(_lit_from_json(v, n, "lits") for v in t["lits"]),
                     _int(t.get("target", 1), "target"))
                for t in data["terms"]))
        if kind == "rect":
            return CombRect(m=_int(data["m"], "m"), w=_int(data["w"], "w"),
                            tables=tuple(int(t, 16) for t in data["tables"]))
        if kind == "robp":  # order is optional, as in the text form
            return Robp(_int(data["n"], "n"), _int(data["d"], "d"),
                        [[_int(v, "next0") for v in r] for r in data["next0"]],
                        [[_int(v, "next1") for v in r] for r in data["next1"]],
                        [_int(v, "order") - 1 for v in data["order"]] if "order" in data else None)
    except KeyError as exc:
        raise FormatError(0, f"{kind} object has no {exc.args[0]!r} field") from None
    except TypeError as exc:
        raise FormatError(0, f"malformed {kind} object: {exc}") from None
    raise ValueError(f"unknown object type {kind!r}")


def dump_json(obj) -> str:
    return json.dumps(to_json(obj), indent=1, sort_keys=True) + "\n"


def load_path(path: str):
    """Load a text or JSON model file; a parse error names the file."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("{"):
            return from_json(json.loads(text))
        return loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
