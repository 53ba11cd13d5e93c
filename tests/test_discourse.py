import random

from tieupkit.discourse import (
    ConceptInstance,
    DiscourseSegment,
    build_registry,
    lcs_length,
    merge_concepts,
    resolve_pronouns,
    segment_discourse,
    track_topics,
    unify_company_references,
)
from tieupkit.pipeline import extract_document
from tieupkit.tokens import Document, Token

from conftest import load_doc
from oracles import lcs_by_enumeration


def registry_from(*items):
    """items: (surface, pos) or (surface, pos, position)."""
    triples = []
    for n, item in enumerate(items):
        surface, pos = item[0], item[1]
        position = item[2] if len(item) > 2 else (0, n)
        triples.append((surface, pos, position))
    return build_registry(surfaces=triples)


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
        items = [
            (rng.choice(pool), rng.choice(tags), (0, n))
            for n in range(rng.randint(0, 8))
        ]
        return build_registry(surfaces=items)

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
        (ref,) = resolve_pronouns(doc, reg, topics)
        assert ref.referent_ids == frozenset()


def tieup(sent_index, ids):
    return ConceptInstance(
        "JOINT-VENTURE", sent_index, "pattern",
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
            "ECONOMIC-ACTIVITY", 1, "pattern",
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
            covered = []
            for seg in segs:
                covered.extend(range(seg.start, seg.end + 1))
            assert covered == sorted(covered)
            assert len(covered) == len(set(covered))
            for m in mentions:
                assert any(seg.covers(m.sent_index) for seg in segs)


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
        orphan = ConceptInstance("DISSOLVED", 0, "concept-search")
        cluster = merge_concepts(seg, [orphan])
        assert cluster.attached == []
        assert cluster.diagnostics == [orphan]

    def test_merging_is_monotone(self):
        rng = random.Random(79)
        seg = DiscourseSegment(0, 3, frozenset({1, 2}))
        instances = [
            ConceptInstance(
                "C", rng.randrange(4), "pattern",
                subject_ids=frozenset(rng.sample(range(1, 5), rng.randint(0, 2))),
            )
            for _ in range(30)
        ]
        for cut in range(len(instances)):
            small = merge_concepts(seg, instances[:cut]).attached
            big = merge_concepts(seg, instances[: cut + 1]).attached
            assert all(inst in big for inst in small)
