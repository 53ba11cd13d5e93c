import gc
import random

import pytest

from tieupkit import patterns
from tieupkit.concepts import NOUN_LIKE
from tieupkit.pipeline import _created_company_text, extract_document
from tieupkit.templates import parse_templates, serialize_templates
from tieupkit.tokens import Token, parse_token_file

from ablation import extract_without_discourse
from conftest import DATA, bench_corpora, load_doc
from fuzzing import rule_shaped_doc
from oracles import created_company_text_by_walk, pattern_subjects_by_two_walks
from test_discourse import doc_of
from test_fuzz_pipeline import random_doc


class TestWorkedPassage:
    def test_single_segment_covers_both_sentences(self, resources):
        result = extract_document(load_doc("tanabe_merck"), resources)
        (seg,) = [s for s in result.segments if s.tieup_ids]
        assert (seg.start, seg.end) == (0, 1)

    def test_establish_concept_merged_via_pronoun_subject(self, resources):
        result = extract_document(load_doc("tanabe_merck"), resources)
        (cluster,) = result.clusters
        established = [c for c in cluster.attached if c.concept == "ESTABLISH"
                       and c.source == "pattern"]
        assert established
        assert established[0].subject_ids == cluster.tieup_ids

    def test_matches_golden_template(self, resources, data_dir):
        result = extract_document(load_doc("tanabe_merck"), resources)
        golden = (data_dir / "golden" / "tanabe_merck.tmpl").read_text("utf-8")
        assert serialize_templates(result.graph) == golden

    def test_name_recognizer_typed_the_unknown_company(self, resources):
        result = extract_document(load_doc("tanabe_merck"), resources)
        surfaces = {t.surface: t.pos for t in result.document.tokens()}
        assert surfaces["エー・メルク社"] == "company"


class TestSequentialTieups:
    def test_two_segments(self, resources):
        result = extract_document(load_doc("multi_tieup"), resources)
        segs = [s for s in result.segments if s.tieup_ids]
        assert len(segs) == 2
        assert (segs[0].start, segs[0].end) == (0, 1)
        assert (segs[1].start, segs[1].end) == (2, 2)

    def test_sale_attaches_to_first_tieup_only(self, resources):
        result = extract_document(load_doc("multi_tieup"), resources)
        first, second = result.clusters
        assert any(c.bindings.get("activity") == "販売" for c in first.attached)
        assert not any(c.bindings.get("activity") == "販売" for c in second.attached)

    def test_matches_golden_template(self, resources, data_dir):
        result = extract_document(load_doc("multi_tieup"), resources)
        golden = (data_dir / "golden" / "multi_tieup.tmpl").read_text("utf-8")
        assert serialize_templates(result.graph) == golden

    def test_repeated_name_unified_not_aliased(self, resources):
        result = extract_document(load_doc("multi_tieup"), resources)
        ids = [e.entity_id for e in result.registry.entries]
        assert ids == [1, 2, 1, 1, 5]


class TestAbbreviationDiscourse:
    def test_unified_abbreviation_takes_topic(self, resources):
        result = extract_document(load_doc("abbrev_sale"), resources)
        # ベンツ is tagged unknown but unified with メルセデス・ベンツ, so
        # followed by は it becomes the topic instead of inheriting A社.
        benz = result.registry.entries[1].entity_id
        assert result.topics.for_sentence(1) == {benz}
        assert not result.topics.inherited[1]
        assert result.topics.for_sentence(2) == {benz}
        assert result.topics.inherited[2]

    def test_jisya_follows_abbreviation_topic(self, resources):
        result = extract_document(load_doc("abbrev_sale"), resources)
        (jisya,) = [p for p in result.pronouns if p.surface == "自社"]
        names = {result.registry.canonical_string(i) for i in jisya.referent_ids}
        assert names == {"メルセデス・ベンツ"}

    def test_alias_slot_populated(self, resources, data_dir):
        result = extract_document(load_doc("abbrev_sale"), resources)
        golden = (data_dir / "golden" / "abbrev_sale.tmpl").read_text("utf-8")
        assert serialize_templates(result.graph) == golden


class TestDissolvedTieup:
    def test_rejoined_compound_drives_status(self, resources, data_dir):
        # 提携解消 arrives split into two tokens; the run-time compound run
        # lets the DISSOLVED keyword fire and flip the tie-up status.
        result = extract_document(load_doc("dissolved"), resources)
        assert any(
            h.concept_name == "DISSOLVED" and h.matched_run == "提携解消"
            for h in result.hits
        )
        (tieup,) = result.graph.tieups
        assert tieup.status == "DISSOLVED"
        golden = (data_dir / "golden" / "dissolved.tmpl").read_text("utf-8")
        assert serialize_templates(result.graph) == golden


class TestNoDiscourseMode:
    def test_graphs_stay_reference_closed(self, resources):
        for name in ("tanabe_merck", "multi_tieup", "pronouns_a", "pronouns_b"):
            result = extract_without_discourse(load_doc(name), resources)
            text = serialize_templates(result.graph)  # raises on dangling refs
            assert parse_templates(text, result.graph.doc_id) == result.graph

    def test_one_tieup_per_best_match(self, resources):
        result = extract_without_discourse(load_doc("multi_tieup"), resources)
        with_bindings = [i for i in result.instances if i.bindings]
        assert len(result.graph.tieups) == len(with_bindings)

    def test_under_specified_tieups_flagged(self, resources):
        result = extract_without_discourse(load_doc("multi_tieup"), resources)
        warned = [t for t in result.graph.tieups if t.warning]
        assert warned  # the lone-subject sale match has only one entity

    def test_sentence_stage_shared_with_full_pipeline(self, resources, data_dir):
        names = sorted(p.stem for p in (data_dir / "corpus").glob("*.tok"))
        assert len(names) == 6
        for name in names:
            full = extract_document(load_doc(name), resources)
            ablation = extract_without_discourse(load_doc(name), resources)
            assert ablation.document == full.document, name
            assert ablation.hits == full.hits, name
            assert ablation.winners == full.winners, name


def news_documents():
    """The benchmark's seed-1 news corpus, parsed."""
    return [
        doc
        for d in bench_corpora().news_corpus(1).documents
        for doc in parse_token_file(d.tokens, d.doc_id)
    ]


TIEUP = [("X社", "company"), ("は", "particle"), ("Y社", "company"), ("と", "particle"),
         ("提携", "verbal-nominal"), ("する", "verb"), ("。", "punct")]

class TestSubjectRule:
    """A pattern instance's subjects are its partners, the companies named in
    its @CNAME spans, plus the referents of the pronouns there that are not
    company mentions; with none, its sentence's topics."""

    @staticmethod
    def assert_oracle_rule(result):
        subjects = pattern_subjects_by_two_walks(result)
        expected = [
            inst._replace(partner_ids=partners, subject_ids=subject_ids)
            for inst, (partners, subject_ids) in zip(result.instances, subjects)
        ]
        for inst in result.instances[len(subjects):]:
            assert inst.source == "concept-search"
            expected.append(inst._replace(subject_ids=result.topics.for_sentence(inst.sent_index)))
        assert result.instances == expected
        assert [c.segment for c in result.clusters] == [s for s in result.segments if s.tieup_ids]
        for cluster in result.clusters:
            seg = cluster.segment
            in_range = [i for i in expected if seg.covers(i.sent_index)]
            merged = [bool(i.subject_ids & seg.tieup_ids) for i in in_range]
            assert cluster.attached == [i for i, m in zip(in_range, merged) if m]
            assert cluster.diagnostics == [i for i, m in zip(in_range, merged) if not m]

    def test_equal_to_two_walks(self, resources):
        docs = [load_doc(p.stem) for p in sorted((DATA / "corpus").glob("*.tok"))]
        rng = random.Random(211)
        docs += [random_doc(rng, f"r{n}") for n in range(3000)]
        docs += [rule_shaped_doc(rng, f"s{n}") for n in range(1000)]
        docs += news_documents()
        seen = set()
        for doc in docs:
            result = extract_document(doc, resources)
            self.assert_oracle_rule(result)
            for inst in result.instances[: len(result.winners)]:
                seen.add((bool(inst.partner_ids), bool(inst.subject_ids - inst.partner_ids)))
        # (partners, subjects beyond them): every combination occurs.
        assert seen == {(True, False), (True, True), (False, False), (False, True)}

    def test_no_company_in_spans_takes_the_topics(self, resources):
        sale = [("製品", "noun"), ("は", "particle"), ("販売", "verbal-nominal"),
                ("する", "verb"), ("。", "punct")]
        result = extract_document(doc_of(TIEUP, sale), resources)
        self.assert_oracle_rule(result)
        (inst,) = [i for i in result.instances if i.sent_index == 1 and i.source == "pattern"]
        assert inst.bindings["@CNAME_PARTNER_SUBJ"] == "製品"
        assert inst.partner_ids == frozenset()
        assert inst.subject_ids == result.topics.for_sentence(1) == {1}
        (cluster,) = result.clusters
        assert inst in cluster.attached

    def test_pronoun_beside_a_named_company_adds_its_referents(self, resources):
        develop = [("X社", "company"), ("は", "particle"), ("両社", "noun"),
                   ("の", "particle"), ("製品", "noun"), ("を", "particle"),
                   ("開発", "verbal-nominal"), ("する", "verb")]
        result = extract_document(doc_of(TIEUP, develop), resources)
        self.assert_oracle_rule(result)
        (inst,) = [i for i in result.instances if i.sent_index == 1 and i.source == "pattern"]
        assert inst.concept == "ECONOMIC-ACTIVITY"
        assert inst.partner_ids == {1}
        assert inst.subject_ids == result.clusters[0].tieup_ids == {1, 2}

    def test_plain_variable_binds_nothing(self, resources):
        # Only @CNAME spans bind and name partners: Y社製品, the company
        # unit inside @PRODUCT, is neither bound nor a partner.
        resources = resources._replace(
            rules=patterns.parse_pattern_file(
                "(Sale1 4 @CNAME_A は:strict:P @PRODUCT 販売:loose:VN)"),
            concept_map={"Sale": "ECONOMIC-ACTIVITY"},
        )
        sale = [("X社", "company"), ("は", "particle"), ("Y社", "company"),
                ("製品", "noun"), ("販売", "verbal-nominal")]
        result = extract_document(doc_of(sale), resources)
        self.assert_oracle_rule(result)
        reg = result.registry
        (inst,) = [i for i in result.instances if i.source == "pattern"]
        assert inst.concept == "ECONOMIC-ACTIVITY"
        assert inst.bindings == {"@CNAME_A": "X社", "activity": "販売"}
        (winner,) = result.winners
        assert winner.spans[2] == (2, 3)
        assert reg.company_entry_at((0, 2)).string == "Y社製品"
        assert inst.partner_ids == {reg.company_entry_at((0, 0)).entity_id} == {1}

    def test_company_tagged_pronoun_is_a_partner(self, resources):
        # 同社 after two companies would resolve to the nearer, Y社; tagged
        # company, it names itself instead.
        sale = [("X社", "company"), ("と", "particle"), ("Y社", "company"),
                ("の", "particle"), ("提携", "verbal-nominal"), ("で", "particle"),
                ("同社", "company"), ("は", "particle"), ("製品", "noun"),
                ("を", "particle"), ("販売", "verbal-nominal"), ("する", "verb")]
        result = extract_document(doc_of(TIEUP, sale), resources)
        self.assert_oracle_rule(result)
        reg = result.registry
        same = reg.company_entry_at((1, 6)).entity_id
        (pronoun,) = [p for p in result.pronouns if p.position == (1, 6)]
        assert pronoun.referent_ids == {reg.company_entry_at((1, 2)).entity_id}
        (inst,) = [i for i in result.instances if i.sent_index == 1 and i.source == "pattern"]
        assert inst.bindings["@CNAME_PARTNER_SUBJ"] == "同社"
        assert inst.partner_ids == inst.subject_ids == {same}


def test_created_company_text_equal_to_the_walk():
    # The created company is the span's trailing noun-like compound, the
    # last of its compound runs when the span ends on a noun-like token.
    rng = random.Random(227)
    tags = sorted(NOUN_LIKE) + ["particle", "verb", "punct", "other"]
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 12)
        sentence = [Token(rng.choice("合弁新会社XY・") + str(i), rng.choice(tags), 0, i)
                    for i in range(n)]
        width = rng.randint(1, min(8, n))
        lo = rng.randint(0, n - width)
        span = (lo, lo + width)
        expected = created_company_text_by_walk(sentence, span)
        assert _created_company_text(sentence, span) == expected
        nouns = [t.pos in NOUN_LIKE for t in sentence[lo:lo + width]]
        seen.add((sentence[lo + width - 1].pos, all(nouns), expected is None))
    # Spans ending on a particle, wholly noun-like spans, and spans whose
    # compound starts inside them all occur.
    assert ("particle", False, True) in seen
    assert {all_nouns for pos, all_nouns, none in seen if not none} == {True, False}


@pytest.fixture
def collector_restored():
    """Start with the cyclic collector on; leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector_restored")
@pytest.mark.parametrize(
    "extract", [extract_document, extract_without_discourse], ids=["discourse", "no_discourse"]
)
class TestCollectorPausedForMatching:
    """The sentence stage runs with the cyclic collector off and gives the
    caller back the collector as it was."""

    @staticmethod
    def record(monkeypatch, fail=False) -> list[bool]:
        seen: list[bool] = []
        match_sentence = patterns.match_sentence

        def recording(sentence, rules):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("matcher failed")
            return match_sentence(sentence, rules)

        monkeypatch.setattr(patterns, "match_sentence", recording)
        return seen

    def test_off_inside_matching_and_on_after(self, monkeypatch, resources, extract):
        seen = self.record(monkeypatch)
        result = extract(load_doc("multi_tieup"), resources)
        assert result.winners
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_stays_off_when_the_caller_had_it_off(self, monkeypatch, resources, extract):
        seen = self.record(monkeypatch)
        gc.disable()
        extract(load_doc("multi_tieup"), resources)
        assert seen and not any(seen)
        assert not gc.isenabled()

    def test_on_again_when_matching_raises(self, monkeypatch, resources, extract):
        seen = self.record(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="matcher failed"):
            extract(load_doc("multi_tieup"), resources)
        assert seen == [False]
        assert gc.isenabled()
