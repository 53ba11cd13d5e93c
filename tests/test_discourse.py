import random

import pytest

from tieupkit.discourse import (
    CompanyRegistry,
    ConceptInstance,
    DiscourseSegment,
    build_registry,
    RegistryEntry,
    lcs_length,
    merge_concepts,
    resolve_pronouns,
    segment_discourse,
    track_topics,
    unify_company_references,
    _english_words,
    _is_english_word,
)
from tieupkit.pipeline import extract_document
from tieupkit.tokens import Document, Token, parse_document

from conftest import load_doc
from oracles import (
    companies_in_sentence_by_scan,
    english_words_by_loop,
    entry_at_by_scan,
    is_english_word_by_loop,
    is_subsequence,
    lcs_by_enumeration,
)


def registry_from(*items):
    """items: (surface, pos) or (surface, pos, position).  The registry of a
    one-sentence document whose tokens carry those positions, the n-th
    (0, n) by default."""
    tokens = []
    for n, item in enumerate(items):
        s, t = item[2] if len(item) > 2 else (0, n)
        tokens.append(Token(item[0], item[1], s, t))
    return build_registry(Document("d", (tuple(tokens),)))


class TestLcs:
    def test_footnote_example(self):
        assert lcs_length("abacbba", "bcda") == 3

    def test_identity(self):
        for s in ("", "a", "日本航空", "abacbba"):
            assert lcs_length(s, s) == len(s)

    def test_airline_abbreviation(self):
        assert lcs_length("日本航空", "日航") == 2

    def test_empty(self):
        assert lcs_length("", "abc") == 0

    def test_matches_enumeration_oracle(self):
        rng = random.Random(61)
        alphabet = "abcd日航空"
        for _ in range(300):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            assert lcs_length(a, b) == lcs_by_enumeration(a, b)


class TestUnification:
    def unified_ids(self, *items):
        reg = registry_from(*items)
        unify_company_references(reg)
        return [e.entity_id for e in reg.entries]

    def test_partial_word(self):
        assert self.unified_ids(("メルセデス・ベンツ", "company"), ("ベンツ", "unknown")) == [1, 1]

    def test_random_characters(self):
        assert self.unified_ids(("新日本製鉄", "company"), ("新日鉄", "unknown")) == [1, 1]

    def test_first_katakana_plus_designator(self):
        assert self.unified_ids(
            ("アメリカン・エクスプレス社", "company"), ("ア社", "unknown")
        ) == [1, 1]

    def test_first_char_of_each_segment(self):
        assert self.unified_ids(("日本航空", "company"), ("日航", "unknown")) == [1, 1]

    def test_english_word_abbreviation(self):
        reg = registry_from(("日本電信電話 (NTT)", "company"), ("NTT", "unknown"))
        # The embedded English word is registered as a word-level entry.
        assert [e.string for e in reg.entries] == ["日本電信電話 (NTT)", "NTT", "NTT"]
        assert reg.entries[1].alias_of == 1 and reg.entries[1].eg
        unify_company_references(reg)
        assert [e.entity_id for e in reg.entries] == [1, 1, 1]

    def test_english_word_rules_equal_the_loops(self):
        # ASCII letters among letters that are not ASCII (full-width, a
        # Kelvin sign, an accented and a dotless letter), kana, digits,
        # spaces and brackets.
        chars = "AZaz" + "ＡＺａｚ" + "\u212aéıſアイカナＩ" + "・09０ 　()（）[]「」"
        rng = random.Random(83)
        for _ in range(20000):
            s = "".join(rng.choice(chars) for _ in range(rng.randrange(9)))
            assert _is_english_word(s) == is_english_word_by_loop(s), s
            assert _english_words(s) == english_words_by_loop(s), s

    def test_join_rule_is_a_subsequence_test(self):
        # The rule as coded (LCS >= 2, LCS = len(tgt), and LCS = len(src)
        # for an English-word source) is a plain subsequence test: the
        # exact form an indexed unification can use instead of LCS.
        rng = random.Random(89)
        shapes = {
            "ascii": lambda: "".join(rng.choices("abcAB", k=rng.randint(0, 6))),
            "kana": lambda: "".join(rng.choices("アイウエオン", k=rng.randint(0, 6))),
            "dot": lambda: "".join(rng.choices("アイ・ab", k=rng.randint(0, 6))),
            "four": lambda: "".join(rng.choices("abアイ", k=rng.randint(0, 8))),
            "short": lambda: "".join(rng.choices("aアB・", k=rng.randint(0, 1))),
        }
        makers = list(shapes.values())
        seen = set()
        for _ in range(20000):
            src = rng.choice(makers)()
            tgt = rng.choice(makers)()
            if rng.random() < 0.3:  # a subsequence of the source, often itself
                tgt = "".join(c for c in src if rng.random() < 0.7)
            reg = CompanyRegistry()
            reg.entries += [
                RegistryEntry(1, src, "company", _is_english_word(src), 1, (0, 0)),
                RegistryEntry(2, tgt, "unknown", _is_english_word(tgt), 2, (0, 1)),
            ]
            unify_company_references(reg)
            joined = reg.entries[1].entity_id == 1
            eg = reg.entries[0].eg
            assert joined == (len(tgt) >= 2 and is_subsequence(tgt, src)
                              and (not eg or tgt == src)), (src, tgt)
            seen.add((joined, eg, len(tgt) < 2, is_subsequence(tgt, src), tgt == src))
        # Joins and refusals for English-word and other sources, equal and
        # unequal strings, and subsequences too short to join all occur.
        assert {
            (True, True, False, True, True),  # English word, equal
            (False, True, False, True, False),  # English word, proper subsequence
            (True, False, False, True, False),  # other source, proper subsequence
            (True, False, False, True, True),  # other source, equal
            (False, False, False, False, False),  # not a subsequence
            (False, False, True, True, False),  # a subsequence of 0 or 1 characters
        } <= seen

    def test_english_source_requires_exact_equality(self):
        reg = registry_from(("IBM", "company"), ("IB", "unknown"))
        unify_company_references(reg)
        assert [e.entity_id for e in reg.entries] == [1, 2]

    def test_disjoint_names_stay_distinct(self):
        assert self.unified_ids(("X商事", "company"), ("Y銀行", "company")) == [1, 2]

    def test_single_char_candidates_not_registered(self):
        reg = registry_from(("ソニー", "company"), ("ソ", "unknown"))
        assert [e.string for e in reg.entries] == ["ソニー"]

    def test_single_char_company_never_unifies(self):
        assert self.unified_ids(("ソニー", "company"), ("ソ", "company")) == [1, 2]

    def test_source_must_precede(self):
        assert self.unified_ids(("ベンツ", "unknown"), ("メルセデス・ベンツ", "company")) == [1, 2]

    def random_registry(self, rng):
        pool = ["メルセデス・ベンツ", "ベンツ", "新日鉄", "新日本製鉄", "NTT", "IBM",
                "日本航空", "日航", "ア社", "X商事", "Y銀行", "aB", "ab"]
        tags = ["company", "unknown", "person", "place"]
        return registry_from(
            *[(rng.choice(pool), rng.choice(tags)) for _ in range(rng.randint(0, 8))]
        )

    def test_idempotent_on_random_registries(self):
        rng = random.Random(67)
        for _ in range(500):
            reg = self.random_registry(rng)
            unify_company_references(reg)
            first = [e.entity_id for e in reg.entries]
            unify_company_references(reg)
            assert [e.entity_id for e in reg.entries] == first

    def test_no_forward_references_and_lcs_witness(self):
        rng = random.Random(71)
        for _ in range(300):
            reg = self.random_registry(rng)
            unify_company_references(reg)
            for e in reg.entries:
                assert e.entity_id <= e.index
                if e.entity_id != e.index and e.alias_of is None:
                    src = reg.entries[e.entity_id - 1]
                    common = lcs_length(src.string, e.string)
                    assert common >= 2
                    # Either the plain containment branch or, for an
                    # English-word source, exact equality.
                    assert common == len(e.string)


class TestRegistryIndexes:
    """Position lookups equal a scan over every entry, before and after
    unification rewrites the entity ids.  The registries come from
    one-sentence documents whose tokens carry random, possibly repeated,
    positions."""

    NAMES = ["日立製作所", "日立", "メルク社", "Merck社", "IBM Japan", "IBM", "ソニー", "ソ",
             "新日本製鉄", "新日鉄", "NTT", "日本電信電話 (NTT)"]
    TAGS = ["company", "company", "unknown", "person", "place"]

    def random_registry(self, rng):
        items = []
        for _ in range(rng.randint(0, 14)):
            # Positions may repeat: the first non-alias entry there wins.
            position = (rng.randrange(4), rng.randrange(5))
            items.append((rng.choice(self.NAMES), rng.choice(self.TAGS), position))
        return registry_from(*items)

    def assert_lookups_equal_scans(self, reg):
        for s in range(5):
            for t in range(6):
                want = entry_at_by_scan(reg, (s, t))
                assert reg.entry_at((s, t)) is want
                if want is None or not reg.is_company_reference(want):
                    assert reg.company_entry_at((s, t)) is None
                else:
                    assert reg.company_entry_at((s, t)) is want

    def test_equal_to_scans(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(400):
            reg = self.random_registry(rng)
            self.assert_lookups_equal_scans(reg)
            before = [reg.is_company_reference(e) for e in reg.entries]
            unify_company_references(reg)
            self.assert_lookups_equal_scans(reg)
            if before != [reg.is_company_reference(e) for e in reg.entries]:
                seen.add("unification made a company reference")
            for e in reg.entries:
                if e.alias_of is not None:
                    seen.add("alias at its parent's position")
                elif entry_at_by_scan(reg, e.position) is not e:
                    seen.add("a later entry at a taken position")
        assert len(seen) == 3, seen


def doc_of(*sentences):
    built = []
    for si, pairs in enumerate(sentences):
        built.append(tuple(Token(s, p, si, ti) for ti, (s, p) in enumerate(pairs)))
    return Document("d", tuple(built))


class TestTopics:
    def test_subject_marker_marks_topic(self):
        doc = doc_of([("X社", "company"), ("は", "particle"), ("大手", "noun")])
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        assert topics.for_sentence(0) == {1}
        assert not topics.inherited[0]

    def test_inheritance(self):
        doc = doc_of(
            [("X社", "company"), ("は", "particle"), ("大手", "noun")],
            [("同社", "noun"), ("の", "particle"), ("社長", "noun")],
        )
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        assert topics.for_sentence(1) == {1}
        assert topics.inherited[1]

    def test_unmarked_company_does_not_take_topic(self):
        # Predicate-position company without a marker; topic stays inherited.
        doc = doc_of(
            [("Y社", "company"), ("が", "particle"), ("発表", "verbal-nominal")],
            [("提携先", "noun"), ("は", "particle"), ("X社", "company"), ("。", "punct")],
        )
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        assert topics.for_sentence(1) == topics.for_sentence(0)
        assert topics.inherited[1]

    def test_sentence_zero_defaults_empty(self):
        doc = doc_of([("大手", "noun"), ("は", "particle")])
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        assert topics.for_sentence(0) == frozenset()

    def test_topic_ids_are_unified(self):
        doc = doc_of(
            [("メルセデス・ベンツ", "company"), ("は", "particle")],
            [("ベンツ", "company"), ("は", "particle")],
        )
        reg = unify_company_references(build_registry(doc=doc))
        topics = track_topics(doc, reg)
        assert topics.for_sentence(0) == topics.for_sentence(1) == {1}


class TestPronouns:
    def test_example_a_dosya_and_jisya(self, resources):
        doc = load_doc("pronouns_a")
        result = extract_document(doc, resources)
        by_surface = {p.surface: p for p in result.pronouns}
        names = lambda p: {result.registry.canonical_string(i) for i in p.referent_ids}
        assert names(by_surface["同社"]) == {"Y社"}
        assert names(by_surface["自社"]) == {"X社"}

    def test_example_b_dosya_topic_fallback(self, resources):
        doc = load_doc("pronouns_b")
        result = extract_document(doc, resources)
        (dosya,) = [p for p in result.pronouns if p.surface == "同社"]
        assert {result.registry.canonical_string(i) for i in dosya.referent_ids} == {"X社"}

    def test_ryosya_resolves_to_current_tieup(self, resources):
        doc = load_doc("tanabe_merck")
        result = extract_document(doc, resources)
        (ryosya,) = [p for p in result.pronouns if p.surface == "両社"]
        assert {result.registry.canonical_string(i) for i in ryosya.referent_ids} == {
            "田辺製薬",
            "エー・メルク社",
        }

    def test_ryosya_unresolved_without_tieup(self):
        doc = doc_of([("両社", "noun"), ("が", "particle")])
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        (ref,) = resolve_pronouns(doc, reg, topics, [])
        assert ref.referent_ids == frozenset()

    def test_ryosya_in_a_shared_sentence_names_the_later_of_two_segments(self):
        # Ids: A社 1, B社 2, C社 3, D社 4.  A-B covers s0-s1 and C-D s1-s2;
        # the segment listed later decides s1.
        doc = doc_of(
            [("A社", "company"), ("と", "particle"), ("B社", "company"), ("両社", "noun")],
            [("両社", "noun"), ("は", "particle")],
            [("C社", "company"), ("と", "particle"), ("D社", "company"), ("両社", "noun")],
        )
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg)
        segments = [DiscourseSegment(0, 1, frozenset({1, 2})),
                    DiscourseSegment(1, 2, frozenset({3, 4}))]
        resolved = lambda segs: [
            (p.position, p.referent_ids) for p in resolve_pronouns(doc, reg, topics, segs)
        ]
        assert resolved(segments) == [((0, 3), {1, 2}), ((1, 0), {3, 4}), ((2, 3), {3, 4})]
        assert resolved(segments[::-1]) == [
            ((0, 3), {1, 2}), ((1, 0), {1, 2}), ((2, 3), {3, 4})
        ]

    def test_dosya_equal_to_rule_over_scanned_companies(self):
        # Random documents, each token at its own (sentence, token) index:
        # with two or more distinct companies before it in its sentence,
        # 同社 takes the nearest, else the topic.
        rng = random.Random(89)
        vocabulary = [
            ("日立製作所", "company"), ("日立", "company"), ("日立", "unknown"),
            ("メルク社", "company"), ("Merck社", "company"), ("IBM", "company"),
            ("日本電信電話 (NTT)", "company"), ("NTT", "unknown"), ("ソ", "company"),
            ("同社", "noun"), ("同社", "noun"), ("は", "particle"), ("が", "particle"),
            ("と", "particle"), ("の", "particle"), ("提携", "verbal-nominal"),
        ]
        seen = set()
        for _ in range(600):
            doc = doc_of(*[
                rng.choices(vocabulary, k=rng.randint(1, 8)) for _ in range(rng.randint(1, 4))
            ])
            reg = unify_company_references(build_registry(doc))
            topics = track_topics(doc, reg)
            for ref in resolve_pronouns(doc, reg, topics, []):
                if ref.surface != "同社":
                    continue
                s, t = ref.position
                preceding = [
                    e for e in companies_in_sentence_by_scan(reg, s) if e.position[1] < t
                ]
                if len({e.entity_id for e in preceding}) >= 2:
                    want = {preceding[-1].entity_id}
                    seen.add("nearest")
                else:
                    want = topics.for_sentence(s)
                    seen.add("topic" if want else "no topic")
                assert ref.referent_ids == want, (doc, ref)
        assert seen == {"nearest", "topic", "no topic"}, seen

    def test_dosya_on_long_dense_sentences_reads_each_position_once(self, monkeypatch):
        # Sentences of up to 200 tokens, dense in companies, company-tagged
        # 同社 and repeated ids: the same rule as over scanned companies, and
        # each position is looked up at most once, never past the sentence's
        # last 同社.
        rng = random.Random(97)
        vocabulary = [
            ("A社", "company"), ("B社", "company"), ("C社", "company"), ("A社", "company"),
            ("日立製作所", "company"), ("日立", "unknown"), ("同社", "company"),
            ("同社", "noun"), ("同社", "noun"), ("は", "particle"), ("の", "particle"),
        ]
        looked_up = []
        company_entry_at = CompanyRegistry.company_entry_at

        def recording(reg, position):
            looked_up.append(position)
            return company_entry_at(reg, position)

        seen = set()
        for _ in range(60):
            doc = doc_of(*[
                rng.choices(vocabulary, k=rng.randint(1, 200)) for _ in range(rng.randint(1, 3))
            ])
            reg = unify_company_references(build_registry(doc))
            topics = track_topics(doc, reg)
            looked_up.clear()
            monkeypatch.setattr(CompanyRegistry, "company_entry_at", recording)
            refs = resolve_pronouns(doc, reg, topics, [])
            monkeypatch.undo()
            assert len(set(looked_up)) == len(looked_up)
            last_dosya = {}
            for ref in refs:
                if ref.surface != "同社":
                    continue
                s, t = ref.position
                last_dosya[s] = t
                preceding = [
                    e for e in companies_in_sentence_by_scan(reg, s) if e.position[1] < t
                ]
                if len({e.entity_id for e in preceding}) >= 2:
                    want = {preceding[-1].entity_id}
                    seen.add("nearest")
                else:
                    want = topics.for_sentence(s)
                    seen.add("topic" if want else "no topic")
                assert ref.referent_ids == want, (doc, ref)
            assert all(t < last_dosya[s] for s, t in looked_up)
        assert seen == {"nearest", "topic", "no topic"}, seen


class TestFixedRules:
    """The paper's subject markers and pronouns, written out literally so that
    a changed constant in ``discourse`` fails here."""

    @pytest.mark.parametrize("marker", ["が", "は", "も"])
    def test_each_subject_marker_makes_the_topic(self, marker):
        doc = doc_of([("大手", "noun"), ("X社", "company"), (marker, "particle")])
        topics = track_topics(doc, build_registry(doc=doc))
        assert topics.for_sentence(0) == {1}
        assert not topics.inherited[0]

    @pytest.mark.parametrize("particle", ["の", "と", "を", "に", "こそ"])
    def test_other_particles_do_not(self, particle):
        doc = doc_of([("X社", "company"), (particle, "particle"), ("大手", "noun")])
        topics = track_topics(doc, build_registry(doc=doc))
        assert topics.for_sentence(0) == frozenset()

    def test_each_pronoun_takes_its_own_rule(self):
        # Ids: X社 1, Y社 2, Z社 3, W社 4 (twice, unified to one id).
        doc = doc_of(
            [("X社", "company"), ("は", "particle"), ("大手", "noun")],
            [("Y社", "company"), ("と", "particle"), ("Z社", "company"), ("の", "particle"),
             ("両社", "noun"), ("同社", "noun"), ("自社", "noun")],
            [("W社", "company"), ("の", "particle"), ("W社", "company"), ("同社", "noun")],
            [("同社", "noun"), ("の", "particle"), ("当社", "noun"), ("弊社", "noun")],
        )
        reg = unify_company_references(build_registry(doc=doc))
        topics = track_topics(doc, reg)
        assert topics.topics == ({1},) * 4
        segments = [DiscourseSegment(1, 1, frozenset({2, 3}))]
        resolved = [(p.position, p.surface, p.referent_ids)
                    for p in resolve_pronouns(doc, reg, topics, segments)]
        assert resolved == [
            ((1, 4), "両社", {2, 3}),  # the current tie-up's partners
            ((1, 5), "同社", {3}),  # two distinct companies precede: the nearest
            ((1, 6), "自社", {1}),  # the topic
            ((2, 3), "同社", {1}),  # one distinct company precedes: the topic
            ((3, 0), "同社", {1}),  # none precedes: the topic
        ]


def tieup(sent_index, ids):
    return ConceptInstance(
        "JOINT-VENTURE", sent_index, "pattern", {},
        subject_ids=frozenset(ids), partner_ids=frozenset(ids),
    )


class TestSegmentation:
    def make_doc(self, nsent):
        return doc_of(*[[("文", "noun"), ("。", "punct")] for _ in range(nsent)])

    def test_new_partner_set_starts_segment(self):
        doc = self.make_doc(3)
        segs = segment_discourse(doc, [tieup(0, {1, 2}), tieup(2, {1, 3})])
        assert [(s.start, s.end, set(s.tieup_ids)) for s in segs] == [
            (0, 1, {1, 2}),
            (2, 2, {1, 3}),
        ]

    def test_same_partner_set_keeps_segment(self):
        doc = self.make_doc(3)
        segs = segment_discourse(doc, [tieup(0, {1, 2}), tieup(2, {1, 2})])
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end) == (0, 2)

    def test_no_tieup_single_unlabeled_segment(self):
        doc = self.make_doc(2)
        (seg,) = segment_discourse(doc, [])
        assert seg.structure_label == "unlabeled"
        assert (seg.start, seg.end) == (0, 1)
        assert seg.tieup_ids == frozenset()

    def test_sub_tieup_mentions_do_not_split(self):
        doc = self.make_doc(2)
        one_company = ConceptInstance(
            "ECONOMIC-ACTIVITY", 1, "pattern", {},
            subject_ids=frozenset({1}), partner_ids=frozenset({1}),
        )
        segs = segment_discourse(doc, [tieup(0, {1, 2}), one_company])
        assert len(segs) == 1

    def test_reappearing_tieup_labeled_type_two(self):
        doc = self.make_doc(3)
        segs = segment_discourse(doc, [tieup(0, {1, 2}), tieup(1, {1, 3}), tieup(2, {1, 2})])
        assert [s.structure_label for s in segs] == ["type-I", "type-I", "type-II"]

    def test_segments_cover_all_tieup_sentences_disjointly(self):
        rng = random.Random(73)
        for _ in range(200):
            nsent = rng.randint(1, 8)
            doc = self.make_doc(nsent)
            mentions = [
                tieup(rng.randrange(nsent), set(rng.sample(range(1, 6), 2)))
                for _ in range(rng.randint(0, 5))
            ]
            segs = segment_discourse(doc, mentions)
            assert segs[0].start == 0 and segs[-1].end == nsent - 1
            for seg, after in zip(segs, segs[1:]):
                # In order and disjoint, except that tie-ups first mentioned
                # in one sentence share it.
                assert seg.start <= seg.end
                assert after.start == seg.end + 1 or (
                    after.start == seg.end
                    and any(m.sent_index == seg.end and m.partner_ids == seg.tieup_ids
                            for m in mentions)
                )
            for m in mentions:
                assert any(seg.covers(m.sent_index) for seg in segs)
            # Each segment covers the sentence of its first mention.
            for seg in segs:
                if seg.tieup_ids:
                    assert any(seg.covers(m.sent_index) and m.partner_ids == seg.tieup_ids
                               for m in mentions)

    def test_tieups_first_mentioned_in_one_sentence_share_it(self):
        doc = self.make_doc(3)
        segs = segment_discourse(
            doc, [tieup(1, {1, 2}), tieup(1, {3, 4}), tieup(1, {5, 6}), tieup(2, {7, 8})]
        )
        assert [(s.start, s.end, set(s.tieup_ids)) for s in segs] == [
            (0, 1, {1, 2}),
            (1, 1, {3, 4}),
            (1, 1, {5, 6}),
            (2, 2, {7, 8}),
        ]

    def test_second_tieup_in_one_sentence_keeps_its_sentence(self, resources):
        # Two tie-ups with different partners first mentioned in the second
        # sentence: each segment covers that sentence.
        text = "\n".join([
            "#DOC d",
            "A社\tcompany", "は\tparticle", "B社\tcompany", "と\tparticle",
            "提携\tverbal-nominal", "し\tverb", "た\tother", "。\tpunct", "",
            "C社\tcompany", "は\tparticle", "D社\tcompany", "と\tparticle",
            "提携\tverbal-nominal", "し\tverb", "、\tpunct",
            "E社\tcompany", "は\tparticle", "F社\tcompany", "の\tparticle",
            "開発\tverbal-nominal", "を\tparticle", "行う\tverb", "。\tpunct",
            "#END", "",
        ])
        result = extract_document(parse_document(text), resources)
        names = result.registry.canonical_string
        assert [
            (s.start, s.end, sorted(names(i) for i in s.tieup_ids)) for s in result.segments
        ] == [(0, 0, ["A社", "B社"]), (1, 1, ["C社", "D社"]), (1, 1, ["E社", "F社"])]


    def test_ryosya_in_a_shared_sentence_names_the_later_segment(self, resources):
        # 両社 in a sentence two segments share names the partners of the
        # segment listed later.
        text = "\n".join([
            "#DOC d",
            "A社\tcompany", "は\tparticle", "B社\tcompany", "と\tparticle",
            "提携\tverbal-nominal", "し\tverb", "た\tother", "。\tpunct", "",
            "C社\tcompany", "は\tparticle", "D社\tcompany", "と\tparticle",
            "提携\tverbal-nominal", "し\tverb", "、\tpunct",
            "E社\tcompany", "は\tparticle", "F社\tcompany", "の\tparticle",
            "開発\tverbal-nominal", "を\tparticle", "行う\tverb", "、\tpunct",
            "両社\tnoun", "は\tparticle", "販売\tverbal-nominal", "する\tverb", "。\tpunct",
            "#END", "",
        ])
        result = extract_document(parse_document(text), resources)
        names = result.registry.canonical_string
        assert [
            (s.start, s.end, sorted(names(i) for i in s.tieup_ids)) for s in result.segments
        ] == [(0, 0, ["A社", "B社"]), (1, 1, ["C社", "D社"]), (1, 1, ["E社", "F社"])]
        assert [
            (p.position, sorted(names(i) for i in p.referent_ids)) for p in result.pronouns
        ] == [((1, 15), ["E社", "F社"])]

class TestMerging:
    def test_intersecting_subjects_attach(self):
        seg = DiscourseSegment(0, 1, frozenset({1, 2}))
        established = ConceptInstance(
            "ESTABLISH", 1, "pattern",
            bindings={"created": "合弁会社"}, subject_ids=frozenset({1, 2}),
        )
        activity = ConceptInstance(
            "ECONOMIC-ACTIVITY", 0, "pattern",
            bindings={"activity": "開発"}, subject_ids=frozenset({1, 2}),
        )
        cluster = merge_concepts(seg, [activity, established])
        assert cluster.attached == [activity, established]

    def test_single_subject_attaches_where_it_intersects(self):
        sale = ConceptInstance(
            "ECONOMIC-ACTIVITY", 1, "pattern",
            bindings={"activity": "販売"}, subject_ids=frozenset({1}),
        )
        first = DiscourseSegment(0, 1, frozenset({1, 2}))
        second = DiscourseSegment(2, 2, frozenset({1, 3}))
        assert merge_concepts(first, [sale]).attached == [sale]
        assert merge_concepts(second, [sale]).attached == []  # out of range

    def test_empty_subjects_become_diagnostics(self):
        seg = DiscourseSegment(0, 0, frozenset({1, 2}))
        orphan = ConceptInstance("DISSOLVED", 0, "concept-search", {})
        cluster = merge_concepts(seg, [orphan])
        assert cluster.attached == []
        assert cluster.diagnostics == [orphan]

    def test_merging_is_monotone(self):
        rng = random.Random(79)
        seg = DiscourseSegment(0, 3, frozenset({1, 2}))
        instances = [
            ConceptInstance(
                "C", rng.randrange(4), "pattern", {},
                subject_ids=frozenset(rng.sample(range(1, 5), rng.randint(0, 2))),
            )
            for _ in range(30)
        ]
        for cut in range(len(instances)):
            small = merge_concepts(seg, instances[:cut]).attached
            big = merge_concepts(seg, instances[: cut + 1]).attached
            assert all(inst in big for inst in small)
