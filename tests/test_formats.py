"""Format parsing and serialization behavior."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dratkit.checkers import BAD_HINT, check_lrat
from dratkit.core import Clause, formula_from_clauses
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    HintBlock,
    ParseError,
    add_step,
    delete_step,
    extension_clauses,
    parse_dimacs,
    parse_drat,
    parse_drat_binary,
    parse_drat_text,
    parse_er,
    parse_lrat,
    write_dimacs,
    write_drat_binary,
    write_drat_text,
    write_er,
    write_lrat,
)

from _oracles import hint_block, naive_check_lrat
from test_pipeline import _cook_proof

FULL2 = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
REFUTE_FULL2 = b"6 1 0 1 3 0\n7 0 6 2 4 0\n"


class TestDimacs:
    def test_two_clause_file(self):
        f, nv, nc = parse_dimacs(b"p cnf 2 2\n1 2 0\n-1 0\n")
        assert dict(f.items()) == {1: Clause([1, 2]), 2: Clause([-1])}
        assert (nv, nc) == (2, 2)
        assert f.max_var == 2

    def test_comment_skipping(self):
        f, _, _ = parse_dimacs(b"c x\n\n \np cnf 1 1\n\n1 0\n")
        assert dict(f.items()) == {1: Clause([1])}

    @pytest.mark.parametrize("header", [b"p dnf 1 1", b"p cnf 1", b"p cnf 1 1 1",
                                        b"p cnf -1 1", b"p cnf 1 -1"])
    def test_bad_header(self, header):
        with pytest.raises(ParseError, match="line 1: bad header"):
            parse_dimacs(header + b"\n1 0\n")

    @pytest.mark.parametrize("ws", [b"\v", b"\f", b"\r"])
    def test_a_comment_runs_to_the_newline(self, ws):
        # as in DRAT-trim and MiniSat: \v, \f and \r separate tokens but end
        # no line, so the comment swallows the -1
        f, _, _ = parse_dimacs(b"p cnf 1 1\nc x" + ws + b"-1 0\n1 0\n")
        assert dict(f.items()) == {1: Clause([1])}

    def test_a_lone_cr_ends_no_line(self):
        with pytest.raises(ParseError, match="line 1: bad header"):
            parse_dimacs(b"p cnf 1 1\r1 0\r")
        f, _, _ = parse_dimacs(b"p cnf 1 1\r\n1 0\r\n")
        assert dict(f.items()) == {1: Clause([1])}

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs(b"p cnf 2 1\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs(b"1 2 0\n")
        with pytest.raises(ParseError):
            parse_dimacs(b"c only comments\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="line 3: duplicate header"):
            parse_dimacs(b"p cnf 2 1\n1 0\np cnf 2 1\n")

    def test_header_over_declares_variables(self):
        f, nv, _ = parse_dimacs(b"p cnf 9 1\n1 0\n")
        assert f.max_var == 9

    def test_overflow_and_count_mismatch_are_tolerated(self):
        assert parse_dimacs(b"p cnf 1 1\n1 2 0\n")[0].max_var == 2
        f, nv, nc = parse_dimacs(b"p cnf 2 2\n1 0\n")
        assert (len(f), nv, nc) == (1, 2, 2)

    def test_clause_spanning_lines(self):
        f, _, _ = parse_dimacs(b"p cnf 3 1\n1\n2 3 0\n")
        assert f.clauses[1] == Clause([1, 2, 3])

    def test_roundtrip(self):
        f, _, _ = parse_dimacs(b"p cnf 3 3\n1 2 0\n-3 0\n0\n")
        again, nv, nc = parse_dimacs(write_dimacs(f))
        assert dict(again.items()) == dict(f.items())
        assert (nv, nc) == (3, 3)


    def test_non_ascii_byte_is_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII"):
            parse_dimacs(b"p cnf 2 2\n1 2 0\n\xff 0\n")

    def test_digit_separator_is_parse_error(self):
        with pytest.raises(ParseError, match="line 2: underscore in token '1_0'"):
            parse_dimacs(b"p cnf 10 1\n1_0 0\n")
        with pytest.raises(ParseError, match="line 1: underscore in token '1_0'"):
            parse_dimacs(b"p cnf 1_0 1\n1 0\n")
        # a comment may hold one
        f, _, _ = parse_dimacs(b"c made_by hand\np cnf 1 1\n1 0\n")
        assert dict(f.items()) == {1: Clause([1])}


class TestDratText:
    def test_unit_then_empty(self):
        steps = parse_drat_text(b"1 0\n0\n")
        assert [(s.kind, s.clause) for s in steps] == [
            ("add", Clause([1])), ("add", Clause([]))]

    def test_deletion_line(self):
        steps = parse_drat_text(b"d 1 2 0\n")
        assert [(s.kind, s.clause) for s in steps] == [("delete", Clause([1, 2]))]

    def test_write_golden(self):
        assert write_drat_text([add_step([1]), add_step([])]) == b"1 0\n0\n"
        assert write_drat_text([delete_step([1, 2])]) == b"d 1 2 0\n"

    def test_tokens_may_span_lines(self):
        steps = parse_drat_text(b"1\n2 0 d\n1\n2 0\n")
        assert [s.kind for s in steps] == ["add", "delete"]
        assert steps[0].clause == steps[1].clause == Clause([1, 2])

    def test_unterminated_step(self):
        with pytest.raises(ParseError):
            parse_drat_text(b"1 2\n")
        with pytest.raises(ParseError):
            parse_drat_text(b"d\n")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_drat_text(b"1 x 0\n")


    def test_non_ascii_byte_is_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII"):
            parse_drat(b"1 2 0\n\xff 0\n")
        # a str follows the same rule: a no-break space separates nothing
        with pytest.raises(ParseError, match="byte 1: non-ASCII byte 0xc2"):
            parse_drat_text("1\xa02 0\n")

    def test_digit_separator_is_parse_error(self):
        with pytest.raises(ParseError, match="line 2: underscore in token '-1_0'"):
            parse_drat(b"1 0\n-1_0 0\n0\n")


class TestDratBinary:
    def test_spec_bytes(self):
        steps = parse_drat_binary(bytes([0x61, 0x02, 0x05, 0x00]))
        assert [(s.kind, s.clause) for s in steps] == [("add", Clause([1, -2]))]
        assert write_drat_binary([add_step([1, -2])]) == bytes([0x61, 0x02, 0x05, 0x00])

    def test_multibyte_varint(self):
        steps = [add_step([-1000000, 77])]
        data = write_drat_binary(steps)
        back = parse_drat_binary(data)
        assert back[0].clause == Clause([-1000000, 77])

    def test_unknown_tag(self):
        with pytest.raises(ParseError, match="byte 0"):
            parse_drat_binary(bytes([0x62, 0x00]))

    def test_low_payload_rejected(self):
        with pytest.raises(ParseError):
            parse_drat_binary(bytes([0x61, 0x01, 0x00]))

    def test_every_non_boundary_truncation_rejected(self):
        steps = [add_step([1, -2]), delete_step([300]), add_step([])]
        data = write_drat_binary(steps)
        boundaries = set()
        pos = 0
        for s in steps:
            pos += 1 + sum(len(write_drat_binary([add_step([l])])) - 2 for l in s.clause.lits) + 1
            boundaries.add(pos)
        for cut in range(len(data)):
            if cut in boundaries or cut == 0:
                parse_drat_binary(data[:cut])
            else:
                with pytest.raises(ParseError):
                    parse_drat_binary(data[:cut])

    @pytest.mark.parametrize("step", [Delete((1,)), Extend(3, 1, (2,)),
                                      Chain(Clause([1]), (1, 2))])
    def test_foreign_step_rejected(self, step):
        with pytest.raises(ValueError, match="content add/delete steps only"):
            write_drat_binary([add_step([1]), step])

    def test_text_binary_agreement(self):
        steps_t = parse_drat_text(b"1 -2 0\nd 300 0\n0\n")
        steps_b = parse_drat_binary(write_drat_binary(steps_t))
        assert steps_t == steps_b


@pytest.mark.parametrize("write", [write_drat_text, write_drat_binary])
@pytest.mark.parametrize("step", [Delete((1,)), (1, add_step([1])), "1 0"],
                         ids=["id-deletion", "id-step-pair", "string"])
def test_drat_writers_reject_a_foreign_step(write, step):
    with pytest.raises(ValueError, match="content add/delete steps only"):
        write([add_step([1]), step])


class TestDratAutoDetect:
    def test_text_detected(self):
        assert parse_drat(b"1 0\n0\n")[0].clause == Clause([1])

    def test_binary_detected(self):
        assert parse_drat(bytes([0x61, 0x02, 0x00]))[0].clause == Clause([1])

    def test_leading_text_deletion_detected_as_text(self):
        steps = parse_drat(b"d 1 2 0\n1 0\n")
        assert [s.kind for s in steps] == ["delete", "add"]
        assert steps[0].clause == Clause([1, 2])
        assert steps[1].clause == Clause([1])

    def test_malformed_leading_text_deletion_gets_the_text_error(self):
        with pytest.raises(ParseError, match="line 1: expected literal, got 'x'"):
            parse_drat(b"d 1 x 0\n")
        with pytest.raises(ParseError, match="line 2: underscore in token '1_0'"):
            parse_drat(b"d 1 2 0\n1_0 0\n")
        # a NUL alone makes no binary proof: it must follow a tag byte
        with pytest.raises(ParseError, match=r"line 2: expected literal, got '\\x00'"):
            parse_drat(b"1 0\n\x00 0\n")

    def test_leading_binary_deletion_detected_as_binary(self):
        steps = [delete_step([1, 2]), add_step([1])]
        data = write_drat_binary(steps)
        assert data[:1] == b"d"
        assert parse_drat(data) == steps
        # every byte of these varints is one text DRAT may hold: only the
        # NUL ending each step tells them apart
        steps = [delete_step([25, -22, 16]), add_step([])]
        data = write_drat_binary(steps)
        assert data == b"d2- \x00a\x00"
        assert parse_drat(data) == steps


class TestDratSharedClauses:
    """Each DRAT parser builds one Clause per literal sequence."""

    @pytest.mark.parametrize("parse, write", [
        (parse_drat_text, write_drat_text), (parse_drat_binary, write_drat_binary)])
    def test_a_deletion_repeating_an_addition_holds_its_clause(self, parse, write):
        steps = [add_step([1, -2, 3]), add_step([4]), delete_step([1, -2, 3]),
                 delete_step([3, 1, -2]), add_step([1, -2, 3]), add_step([])]
        parsed = parse(write(steps))
        assert parsed == steps
        first = parsed[0].clause
        assert parsed[2].clause is first and parsed[4].clause is first
        # a permutation is a different spelling: an equal clause of its own
        assert parsed[3].clause == first and parsed[3].clause.lits == (3, 1, -2)

    @pytest.mark.parametrize("write", [write_drat_text, write_drat_binary])
    def test_parsed_steps_hold_under_250_bytes_each(self, write):
        # 1190 of the 2198 steps of Cook's proof of PHP(7) are deletions,
        # 986 of them spelling an addition's literals; a second Clause
        # (tuple and frozenset) per deletion, and a frozenset per clause,
        # held some 450 bytes a step
        data = write([(add_step if kind == "a" else delete_step)(lits)
                      for kind, lits in _cook_proof(7)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            steps = parse_drat(data)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(steps) == 2198
        assert held <= 250 * len(steps)


class TestLrat:
    def test_addition_line(self):
        steps = parse_lrat(b"3 2 0 1 2 0\n")
        (sid, s), = steps
        assert sid == 3 and s.kind == "add" and s.clause == Clause([2])
        assert s.hints == HintBlock((1, 2))

    def test_deletion_line(self):
        (sid, s), = parse_lrat(b"4 d 1 0\n")
        assert sid == 4 and s == Delete((1,))

    def test_empty_clause_line(self):
        (sid, s), = parse_lrat(b"5 0 3 2 0\n")
        assert sid == 5 and s.clause == Clause([]) and s.hints.rup_chain == (3, 2)

    def test_rat_groups_split_at_negative_hints(self):
        (_, s), = parse_lrat(b"9 1 5 0 1 -3 4 -6 0\n")
        assert s.hints.rup_chain == (1,)
        assert s.hints.rat_groups == ((3, (4,)), (6, ()))

    def test_hints_are_the_line_hint_list(self):
        assert parse_lrat(b"5 1 0 3 -2 4 0\n")[0][1].hints == (3, -2, 4)

    def test_hint_block_split_edges(self):
        empty = HintBlock()
        assert empty == () and empty.rup_chain == () and empty.rat_groups == ()
        lead = HintBlock((-2, 5))  # a leading negative hint
        assert lead.rup_chain == () and lead.rat_groups == ((2, (5,)),)
        adjacent = HintBlock((-2, -3))
        assert adjacent.rup_chain == ()
        assert adjacent.rat_groups == ((2, ()), (3, ()))
        last = HintBlock((1, 4, -2, 6, -3))  # a group at the end, no chain
        assert last.rup_chain == (1, 4)
        assert last.rat_groups == ((2, (6,)), (3, ()))

    @given(st.lists(st.integers(-9, 9).filter(bool)))
    def test_hint_block_split_joins_back(self, hints):
        h = HintBlock(hints)
        assert hint_block(h.rup_chain, h.rat_groups) == h == tuple(hints)
        assert min(h.rup_chain, default=1) > 0
        assert all(cand > 0 and min(chain, default=1) > 0
                   for cand, chain in h.rat_groups)

    def test_non_monotone_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_lrat(b"3 1 0 1 0\n3 2 0 1 0\n")
        with pytest.raises(ParseError):
            parse_lrat(b"4 1 0 1 0\n3 2 0 1 0\n")

    def test_forward_hint_rejected(self):
        with pytest.raises(ParseError, match="not below"):
            parse_lrat(b"3 2 0 3 0\n")
        with pytest.raises(ParseError, match="not below"):
            parse_lrat(b"3 2 0 -4 1 0\n")

    def test_hintless_rat_step_parses_and_verifies(self):
        # a vacuous RAT step: no clause holds -5
        doc = b"5 5 -3 0 0\n" + REFUTE_FULL2
        steps = parse_lrat(doc)
        assert steps[0] == (5, add_step([5, -3], hints=HintBlock()))
        assert write_lrat(steps) == doc
        # an addition built with no hint block writes the same empty list
        assert write_lrat([(5, add_step([5, -3]))] + steps[1:]) == doc
        assert check_lrat(formula_from_clauses(FULL2), steps).verified
        assert naive_check_lrat(FULL2, doc.decode())

    def test_hintless_rat_step_rejected_when_negated_pivot_live(self):
        # step 5 is subsumed by clause 1 and puts -5 into the formula
        doc = b"5 -5 1 2 0 1 0\n6 5 -3 0 0\n7 1 0 1 3 0\n8 0 7 2 4 0\n"
        report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
        assert not report.verified
        assert (report.step_index, report.reason) == (1, BAD_HINT)
        assert not naive_check_lrat(FULL2, doc.decode())

    def test_non_ascii_byte_is_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII"):
            parse_lrat(b"5 1 0 1 3 0\n6 \xff 0 0\n")

    def test_digit_separator_is_parse_error(self):
        with pytest.raises(ParseError, match="line 1: underscore in token '1_0'"):
            parse_lrat(b"5 1_0 0 1 3 0\n6 0 5 2 4 0\n")
        # rejected wherever it stands, even before an earlier error
        with pytest.raises(ParseError, match="line 2: underscore in token '2_'"):
            parse_lrat(b"x\n6 0 2_ 4 0\n")

    def test_hintless_empty_addition_parses(self):
        (sid, s), = parse_lrat(b"3 0 0\n")
        assert s.clause == Clause([]) and s.hints == HintBlock()

    def test_roundtrip_golden(self):
        text = b"5 1 0 1 3 0\n6 0 5 2 4 0\n"
        assert write_lrat(parse_lrat(text)) == text


class TestEr:
    def test_extension_line(self):
        (sid, s), = parse_er(b"4 e 3 1 2 0\n")
        assert sid == 4 and s == Extend(3, 1, (2,))

    def test_family_shape(self):
        fam = extension_clauses(3, 1, [2])
        assert fam == [Clause([3, -1]), Clause([3, -2]), Clause([-3, 1, 2])]
        assert extension_clauses(3, 1, iter([2])) == fam

    def test_family_k0_collapses(self):
        assert extension_clauses(3, 1, []) == [Clause([3, -1]), Clause([3])]

    def test_chain_line(self):
        (sid, s), = parse_er(b"7 2 3 0 4 6 0\n")
        assert sid == 7 and s == Chain(Clause([2, 3]), (4, 6))

    def test_deletion_line(self):
        # LRAT's deletion line: both formats read and write it alike
        text = b"5 d 1 2 0\n"
        assert parse_er(text) == parse_lrat(text) == [(5, Delete((1, 2)))]
        assert write_er(parse_er(text)) == write_lrat(parse_er(text)) == text

    def test_extension_claims_id_span(self):
        with pytest.raises(ParseError, match="collides"):
            parse_er(b"4 e 3 1 2 0\n6 9 0 4 0\n")
        steps = parse_er(b"4 e 3 1 2 0\n7 9 0 4 0\n")
        assert [sid for sid, _ in steps] == [4, 7]

    def test_document_freshness(self):
        with pytest.raises(ParseError, match="not fresh"):
            parse_er(b"4 e 3 1 2 0\n7 e 3 1 0\n")
        steps = parse_er(b"4 e 3 1 2 0\n7 e 4 -3 0\n")
        assert steps[1][1] == Extend(4, -3, ())

    def test_chain_needs_antecedents(self):
        with pytest.raises(ParseError):
            parse_er(b"7 2 0 0\n")

    def test_roundtrip_golden(self):
        text = b"4 e 3 1 2 0\n7 2 3 0 4 6 0\n7 d 1 2 0\n"
        assert write_er(parse_er(text)) == text

    @pytest.mark.parametrize("step", [add_step([1]), delete_step([1])])
    def test_write_rejects_a_foreign_step(self, step):
        with pytest.raises(ValueError, match="not an ER step"):
            write_er([(4, Extend(3, 1, (2,))), (7, step)])

    def test_non_ascii_byte_is_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII"):
            parse_er(b"4 e 3 1 2 0\n8 \xe9 0 4 0\n")

    def test_digit_separator_is_parse_error(self):
        with pytest.raises(ParseError, match="line 1: underscore in token '1_0'"):
            parse_er(b"4 e 1_0 1 2 0\n")


def _random_clause(rng, maxvar=9, width=4):
    n = rng.randint(0, width)
    vs = rng.sample(range(1, maxvar + 1), min(n, maxvar))
    return [v * rng.choice([-1, 1]) for v in vs]


class TestRoundTripProperties:
    def test_drat_both_encodings(self):
        rng = random.Random(21)
        for _ in range(50):
            steps = []
            for _ in range(rng.randint(0, 12)):
                lits = _random_clause(rng)
                steps.append(delete_step(lits) if rng.random() < 0.3 and lits
                             else add_step(lits))
            assert parse_drat_text(write_drat_text(steps)) == steps
            assert parse_drat_binary(write_drat_binary(steps)) == steps

    def test_lrat(self):
        rng = random.Random(22)
        for _ in range(50):
            steps = []
            sid = rng.randint(3, 6)
            for _ in range(rng.randint(1, 10)):
                if rng.random() < 0.3:
                    steps.append((sid, Delete(tuple(
                        sorted(rng.sample(range(1, sid), min(2, sid - 1)))))))
                    continue
                sid += rng.randint(1, 3)
                rup = tuple(sorted(rng.sample(range(1, sid), min(rng.randint(0, 2), sid - 1))))
                groups = []
                for _ in range(rng.randint(0, 2)):
                    cand = rng.randint(1, sid - 1)
                    chain = tuple(sorted(rng.sample(range(1, sid), min(2, sid - 1))))
                    groups.append((cand, chain))
                lits = _random_clause(rng)
                if not lits and not groups:
                    rup = rup or (1,)
                if not lits:
                    groups = []
                block = hint_block(rup, groups)
                if lits and not rup and not groups:
                    block = HintBlock((1,))
                steps.append((sid, add_step(lits, hints=block)))
            assert parse_lrat(write_lrat(steps)) == steps

    def test_er(self):
        rng = random.Random(23)
        for _ in range(50):
            steps = []
            sid = 5
            maxvar = 4
            for _ in range(rng.randint(1, 8)):
                r = rng.random()
                if r < 0.3:
                    maxvar += 1
                    k = rng.randint(0, 2)
                    ls = tuple(v * rng.choice([-1, 1])
                               for v in rng.sample(range(1, maxvar), min(k, maxvar - 1)))
                    p = rng.randint(1, maxvar - 1) * rng.choice([-1, 1])
                    steps.append((sid, Extend(maxvar, p, ls)))
                    sid += len(ls) + 2
                elif r < 0.6:
                    steps.append((sid, Delete(tuple(sorted(rng.sample(range(1, sid), 2))))))
                else:
                    lits = _random_clause(rng, maxvar=maxvar)
                    ants = tuple(sorted(rng.sample(range(1, sid), min(2, sid - 1))))
                    steps.append((sid, Chain(Clause(lits), ants)))
                    sid += 1
            assert parse_er(write_er(steps)) == steps


# bytes drawn mostly from the formats' own tokens, so the parsers get past
# their first token and into headers, hint lists and id checks
_TOKENS = st.lists(st.sampled_from(
    [b"0", b"1", b"7", b"-", b" ", b"\n", b"\r", b"\t", b"d", b"a", b"e",
     b"c", b"p cnf ", b"\x00", b"\x01", b"\x80", b"\xff",
     b"99999999999999999999"]), max_size=40).map(b"".join)


@settings(max_examples=500)
@given(st.one_of(st.binary(), _TOKENS))
def test_parsers_return_or_raise_parse_error_on_any_bytes(data):
    parsers = (parse_dimacs, parse_drat, parse_drat_binary, parse_drat_text,
               parse_lrat, parse_er)
    for parse in parsers:
        try:
            parse(data)
        except ParseError:
            pass


# one valid document per text format, and a space in it that the test
# replaces
SEPARATED = [(parse_dimacs, b"p cnf 2 1\n1 2 0\n", 11),
             (parse_drat_text, b"1 2 0\n0\n", 1),
             (parse_drat, b"1 2 0\n0\n", 1),
             (parse_lrat, b"3 1 0 1 2 0\n", 3),
             (parse_er, b"3 1 0 1 2 0\n", 3)]


@pytest.mark.parametrize("byte", [0x1c, 0x1d, 0x1e, 0x1f])
@pytest.mark.parametrize("parse,doc,at", SEPARATED,
                         ids=[parse.__name__ for parse, _, _ in SEPARATED])
def test_bytes_str_split_reads_as_whitespace_are_parse_errors(parse, doc, at, byte):
    # str.split() takes 0x1c-0x1f for separators and C's isspace does not:
    # no text format holds them
    assert doc[at:at + 1] == b" "
    parse(doc)
    with pytest.raises(ParseError, match="byte %d: separator byte 0x%02x$"
                       % (at, byte)):
        parse(doc[:at] + bytes([byte]) + doc[at + 1:])
