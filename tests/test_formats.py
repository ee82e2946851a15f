import json
import random

import pytest

from derand import formats
from derand.formats import FormatError
from derand.harness import (random_read_once_cnf, random_rect, random_width3,
                            random_xorcnf)
from derand.models import CombRect, Literal, ReadOnceCnf, Robp


def test_rcnf_roundtrip_text_and_json():
    rng = random.Random(1)
    for _ in range(10):
        f = random_read_once_cnf(rng, 12)
        assert formats.loads(formats.dumps(f)) == f
        assert formats.from_json(json.loads(formats.dump_json(f))) == f


def test_xorcnf_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        f = random_xorcnf(rng, 12)
        assert formats.loads(formats.dumps(f)) == f
        assert formats.from_json(json.loads(formats.dump_json(f))) == f


def test_rect_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        r = random_rect(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert formats.loads(formats.dumps(r)) == r
        assert formats.from_json(json.loads(formats.dump_json(r))) == r
    # a table line is max(1, ceil(2^w / 4)) hex digits: one digit through w = 2,
    # where 12 must not come out as the comment token c
    for w in range(6):
        full = (1 << (1 << w)) - 1
        for r in (random_rect(rng, 3, w), CombRect(m=3, w=w, tables=(0, 12 & full, full))):
            text = formats.dumps(r)
            assert [len(line) for line in text.splitlines()[1:]] == [max(1, (1 << w) // 4)] * r.m
            assert formats.loads(text) == r


def test_robp_roundtrip():
    rng = random.Random(4)
    for _ in range(10):
        p = random_width3(rng, rng.randint(2, 8))
        assert formats.loads(formats.dumps(p)) == p
        data = json.loads(formats.dump_json(p))
        assert formats.from_json(data) == p
        del data["order"]  # optional, as in the text form: identity order
        assert formats.from_json(data) == p


def test_parser_diagnostics_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        formats.loads("rcnf 3 1\n1 2 3\n")  # missing terminating zero
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        formats.loads("rcnf 3 1\n1 9 0\n")  # out-of-range literal
    assert err.value.line == 2


def test_parser_rejects_read_once_violation():
    with pytest.raises(FormatError):
        formats.loads("rcnf 3 2\n1 2 0\n-1 0\n")
    with pytest.raises(FormatError):
        formats.loads("xorcnf 3 2\nx 1 2 0\n2 0\n")


def test_one_based_literals_convert():
    f = formats.loads("rcnf 3 1\n-3 1 0\n")
    assert f == ReadOnceCnf(3, ((Literal(2, True), Literal(0)),))


def test_robp_parser_rejects_incomplete_tables():
    text = "robp 1 2\n1 1 0 -> 1\n1 1 1 -> 2\n1 2 0 -> 1\n"
    with pytest.raises(FormatError):
        formats.loads(text)


@pytest.mark.parametrize("text, line, message", [
    pytest.param("robdd 3 1\n", 1, "unknown header 'robdd'", id="unknown-header"),
    pytest.param("rcnf 3\n", 1, "header must be 'rcnf n m'", id="rcnf-header-short"),
    pytest.param("rcnf 3 1 99\n1 0\n", 1, "header must be 'rcnf n m'", id="rcnf-header-extra"),
    pytest.param("xorcnf 3 x\n", 1, "header must be 'xorcnf n m'", id="xorcnf-header"),
    pytest.param("rect 1\n", 1, "header must be 'rect m w'", id="rect-header-short"),
    pytest.param("rect 1 2 7\nF\n", 1, "header must be 'rect m w'", id="rect-header-extra"),
    pytest.param("robp a 3\n", 1, "header must be 'robp n d'", id="robp-header"),
    pytest.param("robp 1 2 5\n", 1, "header must be 'robp n d'", id="robp-header-extra"),
    pytest.param("rcnf 3 1\n1 y 0\n", 2, "non-integer literal 'y'", id="literal-not-int"),
    pytest.param("rcnf 3 1\n0\n", 2, "empty clause", id="empty-clause"),
    pytest.param("xorcnf 3 1\nx 0\n", 2, "empty clause", id="empty-parity-term"),
    pytest.param("rcnf 3 2\n1 0\n", 1, "declared 2 clauses, found 1", id="clause-count"),
    pytest.param("xorcnf 3 1\nx 1 0\n2 0\n", 1, "declared 1 terms, found 2", id="term-count"),
    pytest.param("rect 1 2\nG\n", 2, "bad hex bitmap 'G'", id="bitmap-not-hex"),
    pytest.param("rect 1 2\nF junk 17\n", 2, "bad hex bitmap 'F junk 17'",
                 id="bitmap-extra-tokens"),
    pytest.param("rect 1 3\nF\n", 2, "bitmap must have exactly 2 hex digits",
                 id="bitmap-digit-count"),
    pytest.param("rect 1 1\n7\n", 2, "bitmap wider than 2^w entries", id="bitmap-too-wide"),
    pytest.param("rect 2 2\nF\n", 1, "declared 2 coordinates, found 1", id="coordinate-count"),
    pytest.param("robp 1 2\n1 1 0 1\n", 2, "expected 't state bit -> state'",
                 id="transition-shape"),
    pytest.param("robp 1 2\n1 a 0 -> 1\n", 2, "non-integer transition field",
                 id="transition-not-int"),
    pytest.param("robp 1 2\n2 1 0 -> 1\n", 2, "layer 2 outside 1..1", id="transition-layer"),
    pytest.param("robp 1 2\n1 3 0 -> 1\n", 2, "state outside 1..2", id="transition-state"),
    pytest.param("robp 1 2\n1 1 2 -> 1\n", 2, "bit must be 0 or 1", id="transition-bit"),
    pytest.param("robp 1 2\n1 1 0 -> 1\n1 1 0 -> 2\n", 3, "duplicate transition",
                 id="transition-duplicate"),
    pytest.param("robp 2 1\norder 1\n", 2, "order line needs 2 variables", id="order-length"),
    pytest.param("robp 2 1\norder 1 x\n", 2, "non-integer order variable", id="order-not-int"),
    pytest.param("robp 2 1\norder 2 1\nc the last order line once won\norder 1 2\n", 4,
                 "duplicate order line", id="order-duplicate"),
])
def test_text_parser_refusals_name_their_line(text, line, message):
    with pytest.raises(FormatError) as err:
        formats.loads(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


# spellings int() reads but dumps never writes: a sign, a digit separator,
# a leading zero, a base prefix and a non-ASCII digit
NUMBER_SPELLINGS = ["+3", "1_0", "03", "0x1F", "+01F", "\u0663"]
# (text with {} where the token goes, line, message with {} for its repr)
DECIMAL_SLOTS = [
    ("rcnf {} 1\n1 0\n", 1, "header must be 'rcnf n m'"),
    ("xorcnf 3 {}\nx 1 0\n", 1, "header must be 'xorcnf n m'"),
    ("rcnf 40 1\n1 {} 0\n", 2, "non-integer literal {}"),
    ("rcnf 40 1\n-{} 0\n", 2, "non-integer literal '-{}'"),
    ("rect 1 {}\nF\n", 1, "header must be 'rect m w'"),
    ("robp {} 1\n", 1, "header must be 'robp n d'"),
    ("robp 2 1\norder 1 {}\n", 2, "non-integer order variable"),
    ("robp 1 2\n1 {} 0 -> 1\n", 2, "non-integer transition field"),
    ("robp 1 2\n1 1 0 -> {}\n", 2, "non-integer transition field"),
]


@pytest.mark.parametrize("token", NUMBER_SPELLINGS)
def test_number_tokens_are_read_only_as_dumps_spells_them(token):
    for template, line, message in DECIMAL_SLOTS:
        with pytest.raises(FormatError) as err:
            formats.loads(template.format(token))
        quoted = repr(token) if message.endswith("{}") else token
        assert str(err.value) == f"line {line}: {message.format(quoted)}", template
    # a bitmap of the stated digit count that int(tok, 16) reads; '03' is
    # a valid two-digit bitmap and no width states three digits
    w = {1: 2, 2: 3, 4: 4}.get(len(token))
    if w is not None and token != "03":
        with pytest.raises(FormatError) as err:
            formats.loads(f"rect 1 {w}\n{token}\n")
        assert str(err.value) == f"line 2: bad hex bitmap {token!r}"
    # the spellings dumps writes still load, the hex in either case
    assert formats.loads("rect 1 3\n0f\n") == formats.loads("rect 1 3\n0F\n")
    assert formats.loads("rcnf 10 1\n-10 0\n") == ReadOnceCnf(10, ((Literal(9, True),),))


def test_from_json_refuses_an_unknown_type():
    with pytest.raises(ValueError, match="unknown object type 'robdd'"):
        formats.from_json({"type": "robdd", "n": 1})


@pytest.mark.parametrize("table", ["0x1F", "+1f", "1_0", "\u0663", 31, None, ["1f"]])
def test_from_json_reads_tables_only_as_to_json_spells_them(table):
    # int(t, 16) would read the first four as 0x1F, 0x1F, 0x10 and 3
    with pytest.raises(FormatError) as err:
        formats.from_json({"type": "rect", "m": 2, "w": 3, "tables": ["0f", table]})
    assert str(err.value) == f"line 0: field 'tables' holds {json.dumps(table)}, not hex digits"
    # the spellings to_json writes still load, the hex in either case
    rect = CombRect(m=2, w=3, tables=(0x0F, 0xA1))
    assert formats.from_json({"type": "rect", "m": 2, "w": 3, "tables": ["f", "A1"]}) == rect
    assert formats.to_json(rect)["tables"] == ["f", "a1"]
    assert formats.from_json(json.loads(formats.dump_json(rect))) == rect


def test_blank_and_comment_lines_are_skipped():
    f = formats.loads("c a comment\n\nrcnf 3 1\n   \nc 1 2 0\n-3 1 0\n")
    assert f == ReadOnceCnf(3, ((Literal(2, True), Literal(0)),))
    with pytest.raises(FormatError) as err:  # skipped lines still count
        formats.loads("c header next\n\nrcnf 3 1\n1 9 0\n")
    assert err.value.line == 4


def test_robp_with_a_shuffled_order_roundtrips():
    rng = random.Random(6)
    for _ in range(20):
        p = random_width3(rng, rng.randint(2, 8))
        order = list(range(p.n))
        rng.shuffle(order)
        p = Robp(p.n, p.d, p.next0, p.next1, order)
        text = formats.dumps(p)
        assert ("order " in text) == (p.order != tuple(range(p.n)))
        assert formats.loads(text) == p
        assert formats.from_json(json.loads(formats.dump_json(p))) == p


def test_load_path_dispatches_on_json(tmp_path):
    rng = random.Random(5)
    f = random_read_once_cnf(rng, 8)
    p1 = tmp_path / "f.txt"
    p1.write_text(formats.dumps(f))
    p2 = tmp_path / "f.json"
    p2.write_text(formats.dump_json(f))
    assert formats.load_path(str(p1)) == f
    assert formats.load_path(str(p2)) == f


def test_xor_target_zero_folds_into_negation():
    from derand.models import Term, XorCnf
    from itertools import product
    f = XorCnf(3, (Term("xor", (Literal(0), Literal(2, True)), 0),))
    back = formats.loads(formats.dumps(f))
    for x in product((-1, 1), repeat=3):
        assert back.evaluate(x) == f.evaluate(x)


def test_seed_hex_roundtrip():
    from derand.signs import parse_seed_hex
    for bits, value in ((26, 0x2ABCDE1), (14, 0x3FFF), (5, 0)):
        hexed = value.to_bytes((bits + 7) // 8, "little").hex()
        assert parse_seed_hex(hexed, bits) == value
    import pytest as _pytest
    with _pytest.raises(ValueError):
        parse_seed_hex("ff", 7)  # padding bit set
    with _pytest.raises(ValueError):
        parse_seed_hex("ffff", 8)  # wrong byte count


def _seed_records():
    """(name, field widths, seed bits, sampler) of each generator record
    the splitter serves: rcnf at one and three rounds, the rectangle
    presets with two and four inner stages, and hsg at four lengths."""
    from fractions import Fraction

    from derand import bp3, cr_prg, rcnf_prg

    out = []
    for name, p in (("rcnf-desk", rcnf_prg.desk_preset()),
                    ("rcnf-derived64", rcnf_prg.derive_params(64, Fraction(1, 16)))):
        out.append((name, p.seed_widths, p.seed_bits, lambda s, p=p: rcnf_prg.sample(p, s)))
    for name, p in (("rect-desk", cr_prg.desk_cr_preset(8, 8)),
                    ("rect-derived", cr_prg.derive_cr_params(8, 8, Fraction(1, 16))),
                    ("rect-2x16", cr_prg.explicit_cr_params(2, 16, Fraction(1, 16),
                                                            degrees=(3, 3, 3, 4)))):
        out.append((name, p.seed_widths, p.seed_bits, lambda s, p=p: cr_prg.sample_cr(p, s)))
    for n in (1, 5, 14, 30):
        out.append((f"hsg{n}", bp3._hsg_seed_widths(n), bp3.hsg_seed_bits(n),
                    lambda s, n=n: bp3.hsg_sample(n, Fraction(1, 4), s)))
    return out


def test_split_seeds_fields_concatenate_back():
    from derand.signs import split_seeds
    records = _seed_records()
    assert [len(widths) for _name, widths, _bits, _sample in records[:2]] == [3, 7]
    rng = random.Random(4)
    for name, widths, bits, _sample in records:
        assert bits == sum(widths), name
        seeds = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(20)]
        fields = split_seeds(widths, seeds)
        assert len(fields) == len(widths), name
        for j, seed in enumerate(seeds):
            back, shift = 0, 0
            for width, field in zip(widths, fields):
                assert 0 <= field[j] < 1 << width, name
                back |= field[j] << shift
                shift += width
            assert back == seed, name
    assert split_seeds((3, 5), []) == [[], []]


def test_split_seeds_refuses_seeds_outside_the_space():
    from derand.rcnf_prg import desk_preset, sample_batch
    from derand.signs import split_seeds
    for name, widths, bits, sample in _seed_records():
        message = f"seed must fit in {bits} bits"
        for seed in (-1, 1 << bits):
            with pytest.raises(ValueError, match=message):
                split_seeds(widths, [5, seed])
            with pytest.raises(ValueError, match=message):
                sample(seed)
    params = desk_preset()
    assert sample_batch(params, []).shape == (0, params.n)


@pytest.mark.parametrize("term, message", [
    ({"kind": "xor", "lits": [5, 6]}, "xorcnf object has no 'target' field"),
    ({"kind": "xor", "lits": [5, 6], "targe": 0, "target": 1}, "term has an unknown field 'targe'"),
    ({"kind": "or", "lits": [5, 6], "target": 1}, "term has an unknown field 'target'"),
])
def test_from_json_refuses_a_missing_target_and_unknown_fields(term, message):
    # an xor term without its target once loaded as target 1, and a
    # misspelled field was dropped; to_json writes every xor target
    data = {"type": "xorcnf", "n": 6, "terms": [{"kind": "or", "lits": [1, -2]}, term]}
    with pytest.raises(FormatError) as err:
        formats.from_json(data)
    assert str(err.value) == f"line 0: {message}"
    for kind, fields in (("rcnf", {"n": 3, "clauses": [[1]]}),
                         ("rect", {"m": 1, "w": 1, "tables": ["1"]}),
                         ("robp", {"n": 1, "d": 1, "next0": [[0]], "next1": [[0]]})):
        assert formats.to_json(formats.from_json({"type": kind, **fields}))["type"] == kind
        with pytest.raises(FormatError) as err:
            formats.from_json({"type": kind, **fields, "Dn": 8})
        assert str(err.value) == f"line 0: {kind} object has an unknown field 'Dn'"


def _fuzz_objects():
    """One object of each kind: a read-once CNF, a parity CNF with xor
    terms of both targets, a 3 x 4 rectangle and a program whose order
    line is written."""
    from derand.models import Term, XorCnf
    rng = random.Random(5)
    xor = XorCnf(10, (Term("or", (Literal(0), Literal(3, True))),
                      Term("xor", (Literal(1), Literal(4)), 1),
                      Term("xor", (Literal(2, True), Literal(5), Literal(7)), 0),
                      Term("or", (Literal(9),))))
    p = random_width3(rng, 6)
    order = list(range(p.n))
    rng.shuffle(order)
    return [random_read_once_cnf(rng, 10), xor, random_rect(rng, 3, 4),
            Robp(p.n, p.d, p.next0, p.next1, order)]


def _edit(rng, text: str, alphabet: str) -> str:
    """1-3 single-character inserts, deletes or replacements."""
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(text) + 1), rng.randrange(3)
        text = text[:i] + (rng.choice(alphabet) if op != 1 else "") + text[i + (op != 0):]
    return text


FUZZ_EDITS = 20_000


def test_seeded_fuzz_of_both_loaders():
    # every edit of dumps text is refused with a FormatError that names a
    # line, or loads an object whose dumps is the edited text once hex
    # case, runs of spaces, and blank and comment lines are ignored.  Every
    # edit of dump_json text that parses is refused with a ValueError or
    # loads an object whose to_json is the edited data, each table read as
    # a hex number.  About 0.7 s on one core
    def canonical(text):
        lines = (" ".join(line.split()).upper() for line in text.splitlines())
        return [line for line in lines if line and line.split()[0] != "C"]

    objects, rng = _fuzz_objects(), random.Random(5)
    texts = [formats.dumps(obj) for obj in objects]
    outcomes = {"refused": 0, "loaded": 0}
    for i in range(FUZZ_EDITS):
        text = _edit(rng, texts[i % 4], "0123456789abcdefABCDEF-+x_c \n٣" + texts[i % 4])
        try:
            obj = formats.loads(text)
        except FormatError as exc:
            assert exc.line >= 1, (text, exc)
            outcomes["refused"] += 1
            continue
        assert canonical(formats.dumps(obj)) == canonical(text), text
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > FUZZ_EDITS // 20, outcomes
    texts = [formats.dump_json(obj) for obj in objects]
    outcomes = {"refused": 0, "loaded": 0}
    for i in range(FUZZ_EDITS):
        text = _edit(rng, texts[i % 4], '0123456789abcdefABCDEF-+_"{}[],:. \n٣' + texts[i % 4])
        try:
            data = json.loads(text)
        except ValueError:
            continue
        try:
            obj = formats.from_json(data)
        except ValueError:
            outcomes["refused"] += 1
            continue
        if isinstance(obj, CombRect):
            data["tables"] = [format(int(t, 16), "x") for t in data["tables"]]
        assert formats.to_json(obj) == data, text
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > FUZZ_EDITS // 20, outcomes
