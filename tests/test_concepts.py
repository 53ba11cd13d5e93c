import random

import pytest

from tieupkit.concepts import (
    ConceptLexicon,
    Keyword,
    compound_runs,
    find_concepts,
    load_concept_lexicon,
)
from tieupkit.errors import ParseError
from tieupkit.tokens import Token

from oracles import concept_hits_by_scan, find_concepts_ungated


def sent(*pairs):
    return [Token(s, p, 0, i) for i, (s, p) in enumerate(pairs)]


class TestLexicon:
    def test_keyword_list(self):
        lex = load_concept_lexicon("(DISSOLVED 提携解消 整理 消滅)")
        (name, keywords), = lex.entries
        assert name == "DISSOLVED"
        assert [k.text for k in keywords] == ["提携解消", "整理", "消滅"]
        assert not any(k.anchor_begin or k.anchor_end for k in keywords)

    def test_double_anchor(self):
        lex = load_concept_lexicon("(MAT >シリコン<)")
        kw = lex.entries[0][1][0]
        assert kw.text == "シリコン" and kw.anchor_begin and kw.anchor_end

    def test_empty_keyword_list(self):
        with pytest.raises(ParseError):
            load_concept_lexicon("(X)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            load_concept_lexicon("(X 提携")

    def test_error_names_line(self):
        with pytest.raises(ParseError) as err:
            load_concept_lexicon("(A 提携)\n(B)\n", path="kw.lex")
        assert err.value.line == 2
        assert "kw.lex" in str(err.value)

    def test_duplicate_concept(self):
        with pytest.raises(ParseError):
            load_concept_lexicon("(X 提携)\n(X 合弁)")
        # Built directly, without the reader's line check.
        with pytest.raises(ValueError, match="^concept names must be unique$"):
            ConceptLexicon((("X", (Keyword("提携"),)), ("X", (Keyword("合弁"),))))

    def test_comments_and_blanks(self):
        lex = load_concept_lexicon("# heading\n\n(X 提携)\n")
        assert len(lex.entries) == 1


class TestCompoundRuns:
    def test_adjacent_nouns_concatenate(self):
        runs = compound_runs(sent(("提携", "noun"), ("解消", "noun")))
        assert runs == [("提携解消", 0, 2)]

    def test_silicon_dioxide(self):
        runs = compound_runs(sent(("二酸化", "noun"), ("シリコン", "noun")))
        assert runs == [("二酸化シリコン", 0, 2)]

    def test_particle_is_singleton(self):
        assert compound_runs(sent(("は", "particle"))) == [("は", 0, 1)]

    def test_mixed_sentence(self):
        runs = compound_runs(
            sent(("X社", "company"), ("は", "particle"), ("合弁", "noun"), ("会社", "noun"))
        )
        assert runs == [("X社", 0, 1), ("は", 1, 1), ("合弁会社", 2, 2)]


class TestFindConcepts:
    def test_compound_keyword_hits_rejoined_run(self):
        lex = load_concept_lexicon("(DISSOLVED 提携解消)")
        hits = find_concepts(sent(("提携", "noun"), ("解消", "noun")), lex)
        assert [(h.concept_name, h.matched_run) for h in hits] == [("DISSOLVED", "提携解消")]

    def test_anchored_keyword_rejects_larger_compound(self):
        anchored = load_concept_lexicon("(MAT >シリコン<)")
        plain = load_concept_lexicon("(MAT シリコン)")
        s = sent(("二酸化", "noun"), ("シリコン", "noun"))
        assert find_concepts(s, anchored) == []
        assert len(find_concepts(s, plain)) == 1

    def test_substring_matches_suffix_compound(self):
        lex = load_concept_lexicon("(JV 提携)")
        hits = find_concepts(sent(("業務", "noun"), ("提携", "noun")), lex)
        assert hits and hits[0].matched_run == "業務提携"

    def test_empty_lexicon(self):
        lex = load_concept_lexicon("")
        assert find_concepts(sent(("提携", "noun")), lex) == []

    def test_duplicate_collapse_per_concept_and_run(self):
        lex = load_concept_lexicon("(JV 提携 業務提携)")
        hits = find_concepts(sent(("業務", "noun"), ("提携", "noun")), lex)
        assert len(hits) == 1


def random_sentence(rng):
    vocab = ["提携", "解消", "シリコン", "二酸化", "販売", "は", "を", "。", "X社"]
    tags = ["noun", "verbal-nominal", "particle", "punct", "company", "verb"]
    return sent(*[(rng.choice(vocab), rng.choice(tags)) for _ in range(rng.randint(0, 12))])


def random_lexicon(rng):
    pool = ["提携", "解消", "提携解消", "シリコン", ">シリコン<", ">二酸化", "販売<", "X社"]
    lines = []
    for i in range(rng.randint(1, 4)):
        kws = rng.sample(pool, rng.randint(1, 3))
        lines.append(f"(C{i} {' '.join(kws)})")
    return load_concept_lexicon("\n".join(lines))


class TestProperties:
    def test_matches_brute_force_scan(self):
        rng = random.Random(23)
        for _ in range(300):
            s = random_sentence(rng)
            lex = random_lexicon(rng)
            got = {(h.concept_name, h.run_start) for h in find_concepts(s, lex)}
            assert got == concept_hits_by_scan(s, lex)

    def test_anchored_hit_implies_unanchored_hit(self):
        rng = random.Random(29)
        for _ in range(200):
            s = random_sentence(rng)
            lex = random_lexicon(rng)
            stripped = load_concept_lexicon(
                "\n".join(
                    f"({name} {' '.join(sorted({k.text for k in kws}))})"
                    for name, kws in lex.entries
                )
            )
            anchored_hits = {(h.concept_name, h.run_start) for h in find_concepts(s, lex)}
            plain_hits = {(h.concept_name, h.run_start) for h in find_concepts(s, stripped)}
            assert anchored_hits <= plain_hits

    def test_hit_set_monotone_in_lexicon(self):
        rng = random.Random(31)
        for _ in range(200):
            s = random_sentence(rng)
            small = load_concept_lexicon("(C0 提携)")
            big = load_concept_lexicon("(C0 提携 解消 シリコン)")
            small_hits = {(h.concept_name, h.run_start) for h in find_concepts(s, small)}
            big_hits = {(h.concept_name, h.run_start) for h in find_concepts(s, big)}
            assert small_hits <= big_hits

    def test_hit_invariant_keyword_in_run(self):
        rng = random.Random(37)
        for _ in range(200):
            s = random_sentence(rng)
            lex = random_lexicon(rng)
            for h in find_concepts(s, lex):
                assert h.keyword.text in h.matched_run
                if h.keyword.anchor_begin:
                    assert h.matched_run.startswith(h.keyword.text)
                if h.keyword.anchor_end:
                    assert h.matched_run.endswith(h.keyword.text)


class TestInitialGate:
    """Skipping runs that hold no key word's first character changes no hit."""

    ALPHABET = "提携解消販売シ"
    TAGS = ["noun", "verbal-nominal", "company", "particle", "punct"]

    def random_lexicon(self, rng):
        lines = []
        for i in range(rng.randint(1, 4)):
            words = []
            for _ in range(rng.randint(1, 3)):
                text = "".join(rng.choices(self.ALPHABET[:4], k=rng.randint(1, 3)))
                words.append(rng.choice(["", ">"]) + text + rng.choice(["", "<"]))
            lines.append(f"(C{i} {' '.join(words)})")
        return load_concept_lexicon("\n".join(lines))

    def random_sentence(self, rng):
        return sent(*[
            ("".join(rng.choices(self.ALPHABET, k=rng.randint(1, 3))), rng.choice(self.TAGS))
            for _ in range(rng.randint(0, 8))
        ])

    def test_equals_ungated_loop(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(600):
            lex = self.random_lexicon(rng)
            s = self.random_sentence(rng)
            got = find_concepts(s, lex)
            want = find_concepts_ungated(s, lex)
            assert got == want, (lex, s)
            firsts = [kw.text[0] for _, kws in lex.entries for kw in kws]
            if len(firsts) > len(set(firsts)):
                seen.add("key words sharing an initial")
            seen.update((h.keyword.anchor_begin, h.keyword.anchor_end) for h in got)
            hit_runs = {h.run_start for h in got}
            for run, start, _count in compound_runs(s):
                if lex.initials.isdisjoint(run):
                    seen.add("run skipped")
                elif start not in hit_runs:
                    seen.add("run with an initial but no key word")
        assert seen == {
            "key words sharing an initial", "run skipped", "run with an initial but no key word",
            (False, False), (True, False), (False, True), (True, True),
        }

    def test_initials_are_every_first_character(self):
        lex = load_concept_lexicon("(A >提携< 解消)\n(B 提案<)")
        assert lex.initials == {"提", "解"}
        assert load_concept_lexicon("").initials == frozenset()
        assert find_concepts(sent(("提携", "noun")), load_concept_lexicon("")) == []
        # The gate reads every key word's first character, so none is empty.
        with pytest.raises(ValueError):
            Keyword("")
