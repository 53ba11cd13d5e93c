import random

import pytest

from tieupkit.errors import ParseError
from tieupkit.patterns import (
    ElementKind,
    PatternRule,
    index_prefilter,
    match_sentence,
    parse_pattern_file,
    select_best,
)
from tieupkit.tokens import Token

from oracles import enumerate_matches, match_set

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

    def test_english_rule_multiword_literal(self):
        (rule,) = parse_pattern_file(EN_RULE_TEXT)
        assert rule.index_field == 3
        assert rule.index_element.alternatives == ("a joint venture",)
        assert rule.index_element.mode == "strict"
        assert rule.index_element.pos_tag == "NP"

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_pattern_file("(R 2 @SKIP)")

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
