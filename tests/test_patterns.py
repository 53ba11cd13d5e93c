import gc
import random
import re
import string
import time
from collections import Counter
from itertools import groupby
from operator import attrgetter

import pytest

from tieupkit.errors import ParseError
from tieupkit.patterns import (
    MAX_RULE_ELEMENTS,
    ElementKind,
    PatternElement,
    PatternMatch,
    PatternRule,
    _live_positions,
    index_prefilter,
    match_sentence,
    parse_pattern_file,
    select_best,
)
from tieupkit.pipeline import extract_document
from tieupkit.tokens import Token, parse_document

from ablation import extract_without_discourse
from oracles import (
    enumerate_in_order,
    enumerate_matches,
    literal_accepts,
    match_fields,
    match_set,
    select_best_by_key,
)

JV_RULE_TEXT = """
(JointVenture1 6
  @CNAME_PARTNER_SUBJ
  は|が:strict:P
  @CNAME_PARTNER_WITH
  と:strict:P
  @SKIP
  提携:loose:VN)
"""

EN_RULE_TEXT = """
(JointVenture1 3
  @CNAME_PARTNER_SUBJ
  create::V
  a joint venture::NP
  with::P
  @CNAME_PARTNER_WITH)
"""


def sent(*pairs):
    return [Token(s, p, 0, i) for i, (s, p) in enumerate(pairs)]


class TestParsing:
    def test_japanese_rule(self):
        (rule,) = parse_pattern_file(JV_RULE_TEXT)
        assert rule.name == "JointVenture1"
        assert rule.group == "JointVenture"
        assert rule.index_field == 6
        kinds = [e.kind for e in rule.elements]
        assert kinds == [
            ElementKind.VARIABLE,
            ElementKind.LITERAL,
            ElementKind.VARIABLE,
            ElementKind.LITERAL,
            ElementKind.SKIP,
            ElementKind.LITERAL,
        ]
        assert rule.elements[1].alternatives == ("は", "が")
        assert rule.elements[1].mode == "strict"
        assert rule.elements[1].pos_tag == "P"
        assert rule.index_element.alternatives == ("提携",)
        assert rule.index_element.mode == "loose"

    def test_group_strips_what_the_digit_pattern_strips(self):
        # The reference is the rule as a regular expression; ``\d`` takes
        # Unicode category Nd.  Names hold no whitespace, as the reader
        # splits them out, so ``$`` never matches before a newline.
        digits = "0123456789０１２３４５６７８９٠١٢٣٤٥٦٧٨٩०१२३४५६७८९"
        other_numerics = "²½Ⅻ〇"
        pools = (digits, digits + string.ascii_letters, digits + other_numerics,
                 digits + other_numerics + string.ascii_letters)
        literal = PatternElement(ElementKind.LITERAL, alternatives=("x",), mode="strict",
                                 pos_tag="N")
        rng = random.Random(83)
        seen = Counter()
        for _ in range(5000):
            pool = rng.choice(pools)
            name = "".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            group = PatternRule(name, 1, (literal,)).group
            assert group == re.sub(r"\d+$", "", name), name
            seen["empty" if not group else "kept" if group == name else "stripped"] += 1
            if group[-1:] in other_numerics:
                seen["ends in another numeric"] += 1
        assert min(seen.values()) > 50 and len(seen) == 4, seen

    def test_english_rule_multiword_literal(self):
        (rule,) = parse_pattern_file(EN_RULE_TEXT)
        assert rule.index_field == 3
        assert rule.index_element.alternatives == ("a joint venture",)
        assert rule.index_element.mode == "strict"
        assert rule.index_element.pos_tag == "NP"

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 2 @SKIP)")

    def test_index_takes_only_its_canonical_spelling(self):
        # int() reads each of these as 1, or as a number too long for it.
        for spelling in ("١", "１", "+1", "0_1", "1_", "01", "1" * 19, "9" * 5000):
            text = f"(A 1 設立:loose:VN)\n(B {spelling}\n  設立:loose:VN)"
            with pytest.raises(ParseError) as err:
                parse_pattern_file(text, path="rules.pat")
            assert err.value.line == 2, spelling
            assert str(err.value).startswith("rules.pat:line 2: index field "), spelling
        with pytest.raises(ParseError, match=r"line 1: index field \+1 must be ASCII digits"):
            parse_pattern_file("(R +1 設立:loose:VN)")
        with pytest.raises(ParseError, match=r"index field 1{18}\.\.\. has more than 18 digits"):
            parse_pattern_file(f"(R {'1' * 5000} 設立:loose:VN)")
        # An 18-digit index is read, and is then out of range.
        with pytest.raises(ParseError, match=f"index field {'1' * 18} out of range 1..1"):
            parse_pattern_file(f"(R {'1' * 18} 設立:loose:VN)")

    def test_index_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 1 @X 設立:loose:VN)")

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 1 設立:fuzzy:VN)")

    def test_empty_rule(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 1)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 1 設立:loose:VN")

    def test_comments_skipped(self):
        rules = parse_pattern_file("# (not a rule\n(R 1 設立:loose:VN)")
        assert len(rules) == 1

    def test_trailing_comments_skipped(self):
        rules = parse_pattern_file("(R 1\n  設立:loose:VN  # end word\n  @SKIP)")
        assert len(rules) == 1
        assert len(rules[0].elements) == 2

    def test_error_names_rule_start_line(self):
        text = "(A 1 設立:loose:VN)\n\n(B 2\n  @SKIP)"
        with pytest.raises(ParseError) as err:
            parse_pattern_file(text, path="rules.pat")
        assert err.value.line == 3
        assert "rules.pat" in str(err.value)

    def test_duplicate_rule_name_rejected_with_line(self):
        text = (
            "(EconomicActivity2 4 @CNAME_A は|が:strict:P @SKIP 販売:loose:VN)\n"
            "# a second rule of the same name\n"
            "(EconomicActivity2 2\n"
            "  @CNAME_A 開発:loose:VN)"
        )
        with pytest.raises(ParseError) as err:
            parse_pattern_file(text, path="rules.pat")
        assert err.value.line == 3
        assert "duplicate rule name 'EconomicActivity2'" in str(err.value)

    def test_rule_past_the_element_limit_rejected_with_line(self):
        # Matching recurses once per element; a rule at the limit still
        # matches, one past it is rejected before any matching.
        skips = " @SKIP" * (MAX_RULE_ELEMENTS - 1)
        (rule,) = parse_pattern_file(f"(R 1 a:strict:N{skips})")
        assert len(rule.elements) == MAX_RULE_ELEMENTS == 100
        assert len(match_sentence(sent(("a", "noun")), [rule])) == 1
        with pytest.raises(ParseError) as err:
            parse_pattern_file(f"(A 1 a:strict:N)\n(R 1\n a:strict:N{skips} @SKIP)", "r.pat")
        assert (err.value.line, err.value.path) == (2, "r.pat")
        assert "rule has 101 elements, more than 100" in str(err.value)

    def test_rule_past_the_element_limit_refused_when_built_in_code(self):
        # The limit is the rule's own, so a rule that never passed through
        # the reader cannot reach matching and recurse past Python's limit.
        literal = PatternElement(ElementKind.LITERAL, alternatives=("a",), pos_tag="N")
        skip = PatternElement(ElementKind.SKIP, name="@SKIP")
        with pytest.raises(ValueError, match="^rule has 1001 elements, more than 100$"):
            PatternRule("R", 1, (literal,) + (skip,) * 1000)
        rule = PatternRule("R", 1, (literal,) + (skip,) * (MAX_RULE_ELEMENTS - 1))
        assert len(match_sentence(sent(("a", "noun")), [rule])) == 1


class TestConceptMap:
    def test_load_and_rename(self):
        from tieupkit.patterns import load_concept_map

        mapping = load_concept_map("# map\nJointVenture\tJOINT-VENTURE\n")
        assert mapping == {"JointVenture": "JOINT-VENTURE"}

    def test_malformed_line(self):
        from tieupkit.patterns import load_concept_map

        with pytest.raises(ParseError) as err:
            load_concept_map("JointVenture JOINT-VENTURE\n")
        assert err.value.line == 1

    def test_repeated_group_names_second_line(self):
        from tieupkit.patterns import load_concept_map

        with pytest.raises(ParseError) as err:
            load_concept_map("A\tX\n# again\n A \tY\n", "map.tsv")
        assert err.value.line == 3 and err.value.path == "map.tsv"
        assert "duplicate concept-map group 'A'" in str(err.value)


class TestLiteralMatching:
    def test_strict_requires_full_surface(self):
        (rule,) = parse_pattern_file("(R 1 提携:strict:VN)")
        el = rule.elements[0]
        assert el.matches_token(Token("提携", "verbal-nominal"))
        assert not el.matches_token(Token("業務提携", "verbal-nominal"))

    def test_loose_accepts_substring(self):
        (rule,) = parse_pattern_file("(R 1 提携:loose:VN)")
        el = rule.elements[0]
        assert el.matches_token(Token("企業提携", "verbal-nominal"))
        assert not el.matches_token(Token("企業提携", "noun"))

    def test_short_tags_alias_reserved_tags(self):
        (rule,) = parse_pattern_file("(R 1 は:strict:P)")
        assert rule.elements[0].matches_token(Token("は", "particle"))

    def test_np_accepts_grouped_name_units(self):
        (rule,) = parse_pattern_file("(R 1 X社:strict:NP)")
        el = rule.elements[0]
        assert el.matches_token(Token("X社", "company"))
        assert not el.matches_token(Token("X社", "noun"))

    def test_only_literals_match_single_tokens(self):
        (rule,) = parse_pattern_file("(R 3 @CNAME_A @SKIP 提携:strict:VN)")
        assert [el.kind for el in rule.elements] == [
            ElementKind.VARIABLE, ElementKind.SKIP, ElementKind.LITERAL,
        ]
        for el in rule.elements[:2]:
            with pytest.raises(ValueError, match="^only literals match single tokens$"):
                el.matches_token(Token("X社", "company"))

    def test_literal_verdicts_equal_oracle(self):
        # Every literal tag against every token tag, both modes and the
        # omitted mode, on surfaces that hit, contain or miss the words.
        literal_tags = ["noun", "verbal-nominal", "verb", "particle", "punct", "company",
                        "person", "place", "unknown", "other",
                        "P", "V", "VN", "N", "PUNCT", "NP", "X"]
        token_tags = literal_tags + ["NP"]
        words = ["提携", "合弁", "は"]
        rng = random.Random(59)
        verdicts = set()
        for tag in literal_tags:
            for mode in ("strict", "loose", ""):
                alts = rng.sample(words, rng.randint(1, 2))
                (rule,) = parse_pattern_file(f"(L 1 {'|'.join(alts)}:{mode}:{tag})")
                el = rule.elements[0]
                for pos in token_tags:
                    surfaces = [rng.choice(alts), "業務" + rng.choice(alts)] + [
                        "".join(rng.choices(words + ["業務"], k=rng.randint(1, 3)))
                        for _ in range(4)
                    ]
                    for surface in surfaces:
                        tok = Token(surface, pos)
                        want = literal_accepts(alts, mode or "strict", tag, surface, pos)
                        assert el.matches_token(tok) == want, (alts, mode, tag, surface, pos)
                        verdicts.add((tag, pos, mode, want))
        for tag, pos in [("NP", "company"), ("NP", "person"), ("NP", "place"), ("NP", "NP"),
                         ("P", "particle"), ("V", "verb"), ("VN", "verbal-nominal"),
                         ("N", "noun"), ("PUNCT", "punct"), ("noun", "noun"), ("X", "X")]:
            for mode in ("strict", "loose"):
                assert (tag, pos, mode, True) in verdicts, (tag, pos, mode)
        for tag, pos in [("NP", "noun"), ("P", "P"), ("company", "NP"), ("noun", "N")]:
            assert not any((tag, pos, m, True) in verdicts for m in ("strict", "loose", ""))

    def test_strict_implies_loose(self):
        (strict_rule, loose_rule) = parse_pattern_file(
            "(A 1 提携|合弁:strict:VN)\n(B 1 提携|合弁:loose:VN)"
        )
        rng = random.Random(1)
        for _ in range(200):
            surface = "".join(rng.choices("提携合弁業務", k=rng.randint(1, 4)))
            tok = Token(surface, rng.choice(["verbal-nominal", "noun"]))
            if strict_rule.elements[0].matches_token(tok):
                assert loose_rule.elements[0].matches_token(tok)


S434_SENTENCE_1 = sent(
    ("田辺製薬", "company"),
    ("は", "particle"),
    ("8日", "other"),
    ("、", "punct"),
    ("西独", "place"),
    ("の", "particle"),
    ("医薬", "noun"),
    ("メーカー", "noun"),
    ("、", "punct"),
    ("エー・メルク社", "company"),
    ("の", "particle"),
    ("新薬", "noun"),
    ("の", "particle"),
    ("日本", "place"),
    ("国内", "noun"),
    ("で", "particle"),
    ("の", "particle"),
    ("開発", "verbal-nominal"),
    ("、", "punct"),
    ("販売", "verbal-nominal"),
    ("を", "particle"),
    ("する", "verb"),
    ("提携", "verbal-nominal"),
    ("契約", "noun"),
    ("を", "particle"),
    ("結ん", "verb"),
    ("だ", "other"),
    ("。", "punct"),
)

S434_SENTENCE_2 = sent(
    ("新薬", "noun"),
    ("の", "particle"),
    ("販売", "verbal-nominal"),
    ("が", "particle"),
    ("できる", "verb"),
    ("よう", "noun"),
    ("に", "particle"),
    ("なる", "verb"),
    ("5、6年先", "other"),
    ("に", "particle"),
    ("は", "particle"),
    ("、", "punct"),
    ("両社", "noun"),
    ("が", "particle"),
    ("折半", "noun"),
    ("出資", "verbal-nominal"),
    ("し", "verb"),
    ("て", "particle"),
    ("合弁", "noun"),
    ("会社", "noun"),
    ("を", "particle"),
    ("設立", "verbal-nominal"),
    ("する", "verb"),
    ("こと", "noun"),
    ("も", "particle"),
    ("合意", "verbal-nominal"),
    ("し", "verb"),
    ("た", "other"),
    ("。", "punct"),
)

EA_RULE_TEXT = """
(EconomicActivityE 6
  @CNAME_PARTNER_SUBJ
  は|が:strict:P
  @CNAME_PARTNER_SUBJ
  の:strict:P
  @SKIP
  開発:loose:VN)
"""

EST_RULE_TEXT = """
(Establish3 6
  @CNAME_PARTNER_SUBJ
  は|が:strict:P
  @CNAME_CREATED_OBJ
  を:strict:P
  @SKIP
  設立:loose:VN)
"""


class TestWorkedSentences:
    def test_economic_activity_binds_both_companies(self):
        (rule,) = parse_pattern_file(EA_RULE_TEXT)
        matches = match_sentence(S434_SENTENCE_1, [rule])
        assert matches
        hits = [
            m
            for m in matches
            if m.binding_text(S434_SENTENCE_1, "@CNAME_PARTNER_SUBJ") == "田辺製薬"
            and "エー・メルク社"
            in m.binding_text(S434_SENTENCE_1, "@CNAME_PARTNER_SUBJ#2")
        ]
        assert hits

    def test_establish_binds_pronoun_subject_and_created_object(self):
        (rule,) = parse_pattern_file(EST_RULE_TEXT)
        matches = match_sentence(S434_SENTENCE_2, [rule])
        (best,) = select_best(matches)
        assert best.binding_text(S434_SENTENCE_2, "@CNAME_PARTNER_SUBJ") == "両社"
        created = best.binding_text(S434_SENTENCE_2, "@CNAME_CREATED_OBJ")
        assert "合弁会社" in created

    def test_absent_index_word_means_no_match(self):
        (rule,) = parse_pattern_file(EST_RULE_TEXT)
        no_hit = sent(("X社", "company"), ("は", "particle"), ("大手", "noun"))
        assert not index_prefilter(no_hit, rule)
        assert match_sentence(no_hit, [rule], use_prefilter=False) == []


def random_rule(rng, vocab, tags) -> PatternRule:
    n_elements = rng.randint(1, 6)
    parts = []
    literal_positions = []
    var_names = ["@CNAME_A", "@CNAME_B", "@X", "@SKIP"]
    for i in range(n_elements):
        kind = rng.random()
        if kind < 0.45:
            alts = "|".join(rng.sample(vocab, rng.randint(1, 2)))
            mode = rng.choice(["strict", "loose", ""])
            tag = rng.choice(tags + ["P", "VN", "NP"])
            parts.append(f"{alts}:{mode}:{tag}")
            literal_positions.append(i + 1)
        else:
            parts.append(rng.choice(var_names))
    if not literal_positions:
        parts.append(f"{rng.choice(vocab)}::{rng.choice(tags)}")
        literal_positions.append(len(parts))
    index_field = rng.choice(literal_positions)
    name = f"R{rng.randint(1, 9)}"
    (rule,) = parse_pattern_file(f"({name} {index_field} {' '.join(parts)})")
    return rule


def random_tokens(rng, vocab, tags):
    return sent(*[(rng.choice(vocab), rng.choice(tags)) for _ in range(rng.randint(0, 12))])


class TestEnumerationProperties:
    VOCAB = ["提携", "設立", "開発", "は", "が", "と", "X社", "合弁会社"]
    TAGS = ["noun", "verbal-nominal", "particle", "company", "verb"]

    def test_matches_equal_brute_force(self):
        rng = random.Random(41)
        for _ in range(200):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rule = random_rule(rng, self.VOCAB, self.TAGS)
            got = match_set(match_sentence(s, [rule], use_prefilter=False))
            want = {(rule.name, spans) for spans in enumerate_matches(s, rule)}
            assert got == want

    def test_prefilter_changes_nothing(self):
        rng = random.Random(43)
        for _ in range(200):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rules = [random_rule(rng, self.VOCAB, self.TAGS) for _ in range(3)]
            with_filter = match_set(match_sentence(s, rules, use_prefilter=True))
            without = match_set(match_sentence(s, rules, use_prefilter=False))
            assert with_filter == without

    def test_two_subject_markers_double_count(self):
        (rule,) = parse_pattern_file(JV_RULE_TEXT)
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("Y社", "company"),
            ("と", "particle"),
            ("Z社", "company"),
            ("は", "particle"),
            ("W社", "company"),
            ("と", "particle"),
            ("提携", "verbal-nominal"),
        )
        got = match_set(match_sentence(s, [rule]))
        want = {(rule.name, spans) for spans in enumerate_matches(s, rule)}
        assert got == want
        assert len(got) > 1

    def test_bindings_satisfy_elements_when_rechecked(self):
        rng = random.Random(47)
        for _ in range(100):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rule = random_rule(rng, self.VOCAB, self.TAGS)
            for m in match_sentence(s, [rule], use_prefilter=False):
                for el, (lo, hi) in zip(rule.elements, m.spans):
                    if el.kind is ElementKind.LITERAL:
                        assert hi - lo == 1 and el.matches_token(s[lo])
                    elif el.kind is ElementKind.SKIP:
                        assert hi >= lo
                    else:
                        assert hi > lo


    def test_match_fields_equal_recomputation(self):
        # Repeated variable names are common here: four names over up to
        # six elements, two of them @CNAME.
        rng = random.Random(61)
        repeated = 0
        for _ in range(300):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rule = random_rule(rng, self.VOCAB, self.TAGS)
            for m in match_sentence(s, [rule], use_prefilter=False):
                fields = match_fields(s, rule, m.spans)
                assert list(m.bindings.items()) == list(fields["bindings"].items())
                assert m.cname_filled == fields["cname_filled"]
                assert m.consumed == fields["consumed"]
                assert m.elements_matched == fields["elements_matched"]
                assert m.group == fields["group"]
                assert m.rule_name == rule.name and m.sent_index == 0
                repeated += any("#" in key for key in m.bindings)
        assert repeated > 0


def in_order(s, rules, use_prefilter):
    return [
        (m.rule_name, m.spans, m.cname_filled)
        for m in match_sentence(s, rules, use_prefilter=use_prefilter)
    ]


def oracle_in_order(s, rules):
    return [
        (rule.name, spans, cname)
        for rule in rules
        for spans, cname in enumerate_in_order(s, rule)
    ]


class TestEnumerationOrder:
    VOCAB = TestEnumerationProperties.VOCAB
    TAGS = TestEnumerationProperties.TAGS

    def test_matches_equal_oracle_in_order(self):
        # Small vocabularies make rules of one list share equal literals,
        # pair literals that differ only in POS tag, and repeat @CNAME names.
        rng = random.Random(67)
        shared = same_words_other_tag = repeated_cname = 0
        # Rules by the shape of their first element, which the matcher's
        # root loop handles itself, and one-element rules.
        first = {"literal": 0, "@CNAME": 0, "variable": 0, "@SKIP": 0, "one element": 0}
        for _ in range(300):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rules = [random_rule(rng, self.VOCAB, self.TAGS) for _ in range(3)]
            want = oracle_in_order(s, rules)
            assert in_order(s, rules, use_prefilter=True) == want
            assert in_order(s, rules, use_prefilter=False) == want
            for rule in rules:
                el = rule.elements[0]
                if el.kind is ElementKind.LITERAL:
                    first["literal"] += 1
                elif el.kind is ElementKind.SKIP:
                    first["@SKIP"] += 1
                else:
                    first["@CNAME" if rule.is_cname[0] else "variable"] += 1
                first["one element"] += len(rule.elements) == 1
            literals = [
                (i, el)
                for i, rule in enumerate(rules)
                for el in rule.elements
                if el.kind is ElementKind.LITERAL
            ]
            shared += any(i != j and a == b for i, a in literals for j, b in literals)
            same_words_other_tag += any(
                (a.alternatives, a.mode) == (b.alternatives, b.mode) and a.pos_tag != b.pos_tag
                for _, a in literals
                for _, b in literals
            )
            repeated_cname += any(
                sum(el.name == name for el in rule.elements) > 1
                for rule in rules
                for name in ("@CNAME_A", "@CNAME_B")
            )
        assert shared and same_words_other_tag and repeated_cname
        assert all(first.values()), first

    def test_rules_sharing_a_literal(self):
        s = sent(
            ("X社", "company"),
            ("と", "particle"),
            ("Y社", "company"),
            ("が", "particle"),
            ("提携", "verbal-nominal"),
            ("し", "verb"),
            ("提携", "verbal-nominal"),
        )
        rules = parse_pattern_file(
            "(A 3 @CNAME_A @SKIP 提携:loose:VN)\n"
            "(B 4 @CNAME_A と:strict:P @CNAME_B 提携:loose:VN)\n"
            "(C 2 @SKIP 提携:loose:VN)"
        )
        assert rules[0].elements[2] == rules[1].elements[3] == rules[2].elements[1]
        got = in_order(s, rules, use_prefilter=True)
        assert got == oracle_in_order(s, rules)
        assert {name for name, _, _ in got} == {"A", "B", "C"}

    def test_same_words_different_tags(self):
        s = sent(
            ("X社", "company"),
            ("提携", "noun"),
            ("Y社", "company"),
            ("提携", "verbal-nominal"),
        )
        rules = parse_pattern_file(
            "(N1 2 @CNAME_A 提携:loose:N)\n(V1 2 @CNAME_A 提携:loose:VN)"
        )
        got = in_order(s, rules, use_prefilter=True)
        assert got == oracle_in_order(s, rules)
        assert {spans[-1] for name, spans, _ in got if name == "N1"} == {(1, 2)}
        assert {spans[-1] for name, spans, _ in got if name == "V1"} == {(3, 4)}

    def test_repeated_company_variable(self):
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("両社", "noun"),
            ("は", "particle"),
            ("Y社", "company"),
            ("と", "particle"),
            ("提携", "verbal-nominal"),
        )
        (rule,) = parse_pattern_file(
            "(Jv1 6 @CNAME_A は:strict:P @CNAME_A と:strict:P @SKIP 提携:loose:VN)"
        )
        got = in_order(s, [rule], use_prefilter=True)
        assert got == oracle_in_order(s, [rule])
        assert {cname for _, _, cname in got} == {1, 2}

    def test_long_dense_sentences_equal_oracle_in_order(self):
        # 20-40 tokens of four words: assignments far outnumber the
        # (element, start) states, so completions are shared by many prefixes.
        words = [("X社", "company"), ("は", "particle"), ("と", "particle"),
                 ("提携", "verbal-nominal")]
        vocab = [w for w, _ in words]
        tags = ["company", "particle", "verbal-nominal"]
        rng = random.Random(73)
        shared = repeated_cname = adjacent = 0
        for _ in range(60):
            s = sent(*[rng.choice(words) for _ in range(rng.randint(20, 40))])
            rule = random_rule(rng, vocab, tags)
            kinds = [el.kind for el in rule.elements]
            # The oracle tries every span of every variable; three keep it quick.
            if kinds.count(ElementKind.LITERAL) < len(kinds) - 3:
                continue
            got = [(m.spans, m.cname_filled) for m in match_sentence(s, [rule])]
            assert got == enumerate_in_order(s, rule)
            states = {(i, span[0]) for spans, _ in got for i, span in enumerate(spans)}
            shared += len(got) > len(states)
            repeated_cname += any(
                sum(el.name == name for el in rule.elements) > 1
                for name in ("@CNAME_A", "@CNAME_B")
            )
            adjacent += any(
                a is not ElementKind.LITERAL and b is not ElementKind.LITERAL
                for a, b in zip(kinds, kinds[1:])
            )
        assert shared and repeated_cname and adjacent


def dense_clause(length):
    """「P社 は Q社 と 提携 販売 設立 、」 repeated to ``length`` - 1 tokens,
    then 。: the benchmark's long sentence, where every shipped rule matches
    many times."""
    clause = [
        ("P社", "company"), ("は", "particle"), ("Q社", "company"), ("と", "particle"),
        ("提携", "verbal-nominal"), ("販売", "verbal-nominal"), ("設立", "verbal-nominal"),
        ("、", "punct"),
    ]
    return sent(*[clause[i % len(clause)] for i in range(length - 1)], ("。", "punct"))


def literal_rows(s, rule):
    return [
        [el.matches_token(t) for t in s] if el.kind is ElementKind.LITERAL else None
        for el in rule.elements
    ]


class TestLiteralRows:
    """A literal's row is judged in one pass per sentence and shared with the
    prefilter; both agree with the single-token judge."""

    VOCAB = TestEnumerationProperties.VOCAB + ["業務提携", "提携解消"]
    TAGS = TestEnumerationProperties.TAGS + ["person", "place", "NP"]

    def test_rows_equal_oracle(self):
        rng = random.Random(61)
        modes = set()
        for _ in range(300):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rule = random_rule(rng, self.VOCAB, self.TAGS)
            for el in rule.elements:
                if el.kind is not ElementKind.LITERAL:
                    continue
                want = [
                    literal_accepts(el.alternatives, el.mode, el.pos_tag, t.surface, t.pos)
                    for t in s
                ]
                assert el.row(s) == want, (el, s)
                modes.update((el.mode, el.pos_tag == "NP", v) for v in want)
        text_modes = set()
        for tag in ("NP", "VN", "noun"):
            for mode in ("strict", "loose", ""):
                (rule,) = parse_pattern_file(f"(L 1 提携|X社:{mode}:{tag})")
                el = rule.elements[0]
                for _ in range(30):
                    s = random_tokens(rng, self.VOCAB, self.TAGS)
                    assert el.row(s) == [
                        literal_accepts(el.alternatives, mode or "strict", tag, t.surface, t.pos)
                        for t in s
                    ]
                    text_modes.update((mode, tag, v) for v in el.row(s))
        assert {(m, np, v) for m in ("strict", "loose") for np in (True, False)
                for v in (True, False)} <= modes
        assert {(m, "NP", True) for m in ("strict", "loose", "")} <= text_modes

    def test_prefilter_with_and_without_shared_table(self):
        rng = random.Random(67)
        for _ in range(300):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rules = [random_rule(rng, self.VOCAB, self.TAGS) for _ in range(3)]
            table = {}
            for rule in rules:
                el = rule.index_element
                want = any(el.matches_token(t) for t in s)
                assert index_prefilter(s, rule) == want
                assert index_prefilter(s, rule, table) == want
                assert table[el.row_key] == [el.matches_token(t) for t in s]
            # A second round reads every verdict from the table.
            assert [index_prefilter(s, r, table) for r in rules] == [
                index_prefilter(s, r) for r in rules
            ]

    def test_prefilter_row_is_shared_with_the_rules(self):
        rules = parse_pattern_file(
            "(A 3 @CNAME_A は|が:strict:P 提携:loose:VN)\n(B 2 @X 提携:loose:VN)"
        )
        s = sent(("X社", "company"), ("は", "particle"), ("業務提携", "verbal-nominal"))
        table = {}
        assert index_prefilter(s, rules[0], table)
        row = table[rules[0].index_element.row_key]
        assert index_prefilter(s, rules[1], table)
        assert table[rules[1].index_element.row_key] is row
        assert len(table) == 1

    def test_literals_differing_in_mode_or_tag_keep_their_own_rows(self):
        rules = parse_pattern_file(
            "(S 1 提携:strict:VN)\n(L 1 提携:loose:VN)\n(N 1 提携:loose:N)\n(P 1 提携::VN)"
        )
        s = sent(("業務提携", "verbal-nominal"), ("提携", "verbal-nominal"))
        table = {}
        assert [index_prefilter(s, r, table) for r in rules] == [True, True, False, True]
        assert [table[r.index_element.row_key] for r in rules] == [
            [False, True], [True, True], [False, False], [False, True]
        ]
        assert len(table) == 3
        assert {m.rule_name for m in match_sentence(s, rules)} == {"S", "L", "P"}


class TestLiveBranches:
    VOCAB = TestEnumerationProperties.VOCAB
    TAGS = TestEnumerationProperties.TAGS

    def test_live_exactly_where_the_suffix_can_start(self):
        rng = random.Random(71)
        dead_somewhere = 0
        for _ in range(300):
            s = random_tokens(rng, self.VOCAB, self.TAGS)
            rule = random_rule(rng, self.VOCAB, self.TAGS)
            live = _live_positions(rule, literal_rows(s, rule), len(s))
            assert len(live) == len(rule.elements) + 1
            assert list(live[-1]) == list(range(len(s) + 1))
            for i in range(len(rule.elements)):
                suffix = PatternRule(rule.name, 1, rule.elements[i:])
                starts = {spans[0][0] for spans in enumerate_matches(s, suffix)}
                assert list(live[i]) == sorted(starts)
                dead_somewhere += len(starts) < len(s) + 1
        assert dead_somewhere

    def test_sentence_that_cannot_match_costs_linear_time(self, resources):
        # 提携 comes first, so JointVenture1's と never follows it and no rule
        # matches; trying every span of every variable would take cubic time.
        pairs = [("提携", "verbal-nominal")] + [("X社", "company"), ("は", "particle")] * 1000
        s = sent(*pairs)
        assert len(s) == 2001
        started = time.perf_counter()
        assert match_sentence(s, resources.rules) == []
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"2001-token sentence took {elapsed:.2f}s"
        text = "#DOC runaway\n" + "".join(f"{w}\t{p}\n" for w, p in pairs) + "#END\n"
        result = extract_document(parse_document(text), resources)
        assert result.graph.tieups == ()

    def test_dense_clause_equals_oracle_in_order(self, resources):
        for length in range(20, 91, 7):
            s = dense_clause(length)
            assert in_order(s, resources.rules, use_prefilter=True) == oracle_in_order(
                s, resources.rules
            )

    def test_dense_clause_ladder_counts(self, resources):
        counts = [len(match_sentence(dense_clause(n), resources.rules)) for n in (44, 88, 132)]
        assert counts == [490, 7832, 30872]


class TestNoCyclicGarbage:
    """Matching and extraction free everything they build by reference
    counting alone, which is what lets the sentence stage pause the cyclic
    collector."""

    def test_matching_and_extraction_leave_nothing_for_the_collector(self, resources, data_dir):
        docs = [
            parse_document(path.read_text("utf-8"), str(path))
            for path in sorted((data_dir / "corpus").glob("*.tok"))
        ]
        sentences = [dense_clause(n) for n in (44, 88, 132)]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for s in sentences:
                assert select_best(match_sentence(s, resources.rules))
            for doc in docs:
                extract_document(doc, resources)
                extract_without_discourse(doc, resources)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestMatchLayout:
    def test_match_stores_four_fields_and_no_instance_dict(self):
        s = sent(("X社", "company"), ("は", "particle"), ("提携", "verbal-nominal"))
        rules = parse_pattern_file(
            "(Jv1 3 @CNAME_A は:strict:P 提携:loose:VN)\n"
            "(Jv2 3 @CNAME_A は:strict:P 提携:loose:VN)"
        )
        first, second = match_sentence(s, rules)
        assert list(PatternMatch._fields) == [
            "rule", "sent_index", "spans", "cname_filled",
        ]
        assert not hasattr(first, "__dict__")
        assert first.spans == second.spans and first.cname_filled == second.cname_filled
        assert first != second
        rebuilt = PatternMatch(first.rule, first.sent_index, first.spans, first.cname_filled)
        assert rebuilt == first
        assert hash(rebuilt) == hash(first) == hash(("Jv1", 0, first.spans))

    def test_matches_equal_their_dataclass_construction_and_stay_frozen(self):
        rng = random.Random(79)
        vocab, tags = TestEnumerationProperties.VOCAB, TestEnumerationProperties.TAGS
        built = 0
        for _ in range(200):
            s = random_tokens(rng, vocab, tags)
            rules = [random_rule(rng, vocab, tags) for _ in range(2)]
            for m in match_sentence(s, rules, use_prefilter=False):
                rebuilt = PatternMatch(m.rule, m.sent_index, m.spans, m.cname_filled)
                assert m == rebuilt and hash(m) == hash(rebuilt)
                for name in PatternMatch._fields:
                    with pytest.raises(AttributeError):
                        setattr(m, name, getattr(m, name))
                built += 1
        assert built > 100


class TestSelectBest:
    def build(self, text, sentence):
        rules = parse_pattern_file(text)
        return match_sentence(sentence, rules)

    def test_rule1_more_company_fills_wins(self):
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("Y社", "company"),
            ("と", "particle"),
            ("提携", "verbal-nominal"),
        )
        text = """
        (Jv1 4 @CNAME_A は:strict:P @CNAME_B 提携:loose:VN)
        (Jv2 2 @CNAME_A 提携:loose:VN)
        """
        matches = self.build(text, s)
        (winner,) = select_best(matches)
        assert winner.rule_name == "Jv1"
        assert winner.cname_filled == 2

    def test_rule2_shortest_match_wins(self):
        # Two possible end words; a longest-match regime would pick the far one.
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("提携", "verbal-nominal"),
            ("を", "particle"),
            ("提携強化", "verbal-nominal"),
        )
        (rule,) = parse_pattern_file("(Jv 3 @CNAME_A @SKIP 提携:loose:VN)")
        matches = match_sentence(s, [rule])
        full_fill = [m for m in matches if m.cname_filled == 1]
        assert {m.consumed for m in full_fill} == {3, 5}
        (winner,) = select_best(matches)
        assert winner.cname_filled == 1
        assert winner.consumed == 3
        assert winner.end == 3  # stops at the near 提携, not 提携強化

    def test_rule3_more_elements_wins(self):
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("提携", "verbal-nominal"),
        )
        text = """
        (Jv1 2 @CNAME_A 提携:loose:VN)
        (Jv2 3 @CNAME_A は:strict:P 提携:loose:VN)
        """
        matches = self.build(text, s)
        (best_a,) = select_best([m for m in matches if m.rule_name == "Jv1"])
        (best_b,) = select_best([m for m in matches if m.rule_name == "Jv2"])
        assert best_a.cname_filled == best_b.cname_filled
        assert best_a.consumed == best_b.consumed
        assert best_a.elements_matched < best_b.elements_matched
        (winner,) = select_best(matches)
        assert winner.rule_name == "Jv2"

    def test_single_match_is_its_own_winner(self):
        s = sent(("X社", "company"), ("は", "particle"), ("提携", "verbal-nominal"))
        (rule,) = parse_pattern_file("(Jv 3 @CNAME_A は:strict:P 提携:loose:VN)")
        matches = match_sentence(s, [rule])
        assert select_best(matches) == matches

    def test_grouping_keeps_one_winner_per_group(self):
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("合弁会社", "noun"),
            ("を", "particle"),
            ("設立", "verbal-nominal"),
        )
        text = """
        (Establish1 5 @CNAME_A は:strict:P @B を:strict:P 設立:loose:VN)
        (Establish2 3 @CNAME_A @SKIP 設立:loose:VN)
        (JointVenture1 3 @CNAME_A @SKIP 設立:loose:VN)
        """
        matches = self.build(text, s)
        winners = select_best(matches)
        assert sorted(m.group for m in winners) == ["Establish", "JointVenture"]

    def test_selection_is_order_independent(self):
        rng = random.Random(53)
        s = sent(
            ("X社", "company"),
            ("は", "particle"),
            ("Y社", "company"),
            ("は", "particle"),
            ("提携", "verbal-nominal"),
        )
        text = """
        (Jv1 4 @CNAME_A は:strict:P @SKIP 提携:loose:VN)
        (Jv2 2 @CNAME_A 提携:loose:VN)
        """
        matches = self.build(text, s)
        baseline = select_best(matches)
        for _ in range(20):
            shuffled = matches[:]
            rng.shuffle(shuffled)
            assert select_best(shuffled) == baseline

    def test_empty_input(self):
        assert select_best([]) == []

    def test_first_of_equally_ranked_run_winners_wins(self):
        # Two rules of one name whose matches rank equal on every key (a
        # rule file cannot repeat a name, so the second is built directly).
        s = sent(("X社", "company"), ("は", "particle"), ("提携", "verbal-nominal"))
        first, other = parse_pattern_file(
            "(Jv1 3 @CNAME_A は:strict:P 提携:loose:VN)\n"
            "(Jv2 3 @CNAME_B は:strict:P 提携:loose:VN)"
        )
        rules = [first, PatternRule("Jv1", other.index_field, other.elements)]
        for order in (rules, rules[::-1]):
            matches = match_sentence(s, order)
            (winner,) = select_best(matches + matches)
            assert winner.rule is order[0]
            assert select_best_by_key(matches + matches) == [winner]

    def test_equals_the_former_selection_on_random_lists(self):
        # Two groups of several rules each.  Shuffling splits one rule's
        # matches into runs that are not adjacent; copies add duplicates.
        rng = random.Random(83)
        vocab, tags = TestEnumerationProperties.VOCAB, TestEnumerationProperties.TAGS
        tried = split = duplicated = several = 0
        while tried < 300:
            s = random_tokens(rng, vocab, tags)
            rules = []
            for k in range(rng.randint(3, 8)):
                rule = random_rule(rng, vocab, tags)
                rules.append(PatternRule(f"{rng.choice('PQ')}{k}", rule.index_field, rule.elements))
            matches = match_sentence(s, rules, use_prefilter=False)
            if not matches:
                continue
            tried += 1
            shuffled = matches[:]
            rng.shuffle(shuffled)
            copies = matches + rng.choices(matches, k=rng.randint(1, 4))
            rng.shuffle(copies)
            for candidate in (matches, shuffled, copies, [rng.choice(matches)]):
                assert select_best(candidate) == select_best_by_key(candidate)
            runs = [rule for rule, _ in groupby(shuffled, attrgetter("rule"))]
            split += len(runs) > len(set(runs))
            duplicated += len(set(copies)) < len(copies)
            several += any(
                len({m.rule_name for m in matches if m.group == g}) > 1 for g in "PQ"
            )
        assert select_best([]) == select_best_by_key([]) == []
        assert split > 30 and duplicated > 30 and several > 30, (split, duplicated, several)
