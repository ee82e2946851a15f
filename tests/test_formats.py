import json
import random

import pytest

from derand import formats
from derand.formats import FormatError
from derand.harness import (random_read_once_cnf, random_rect, random_width3,
                            random_xorcnf)
from derand.models import Literal, ReadOnceCnf


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
