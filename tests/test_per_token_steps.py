"""Extraction's per-token and per-record steps equal their former bodies
(``tests/oracles.py``) on random documents and on hand cases: the reader,
name recognition, grouping, the registry, literal rows and company counts,
compound runs, topics, pronouns, instance building and template output."""

import random

import pytest

from tieupkit.concepts import compound_runs
from tieupkit.discourse import (
    build_registry,
    resolve_pronouns,
    track_topics,
    unify_company_references,
)
from tieupkit.errors import ParseError
from tieupkit.patterns import ElementKind, PatternElement, match_sentence
from tieupkit.pipeline import extract_document
from tieupkit.templates import (
    EntityObject,
    TemplateGraph,
    TieUpObject,
    generate_templates,
    serialize_templates,
)
from tieupkit.tokens import (
    DesignatorLexicon,
    Document,
    Token,
    group_segments,
    parse_token_file,
    recognize_names,
)

from conftest import DATA
from fuzzing import rule_shaped_doc
from oracles import (
    build_registry_by_appends,
    company_counts_by_appends,
    compound_runs_by_slices,
    extract_document_by_replace,
    generate_templates_by_keywords,
    group_segments_by_placing,
    literal_row_by_any,
    parse_token_file_by_constructor,
    recognize_names_by_placing,
    resolve_pronouns_by_table,
    serialize_templates_by_getattr,
    track_topics_by_index,
)

# Designators and tokens equal to one, runs of ・, numerals, ASCII words in
# company names and ASCII-only names, pronouns and subject markers.
SURFACES = [
    "社", "氏", "銀行", "株式会社", "A社", "B銀行", "鈴木", "田辺製薬", "・", "・・",
    "8", "８", "2024", "8日", "NTTドコモ", "ソニーBMG", "IBM", "Ab", "x", "メルク",
    "両社", "同社", "自社", "は", "が", "も", "と", "を", "の", "提携", "販売", "開発",
    "設立", "合弁", "会社", "製品", "業務提携", "販売網", "。",
]
TAGS = ["noun", "verbal-nominal", "verb", "particle", "punct",
        "company", "person", "place", "unknown", "other"]
LEX = DesignatorLexicon(
    {"社": "company", "株式会社": "company", "銀行": "company", "氏": "person", "市": "place"}
)


def random_doc(rng, doc_id="d", placed=True):
    """Arbitrary tagged tokens; with ``placed`` false, some tokens carry
    indices other than their own position."""
    sentences = []
    for s in range(rng.randint(1, 4)):
        sent = []
        for t in range(rng.randint(1, 12)):
            si, ti = (s, t) if placed or rng.random() < 0.5 else (rng.randrange(3), rng.randrange(9))
            sent.append(Token(rng.choice(SURFACES), rng.choice(TAGS), si, ti))
        sentences.append(tuple(sent))
    return Document(doc_id, tuple(sentences))


def documents(seed, count=300):
    """Arbitrary, misplaced and rule-shaped documents, in turn."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 2:
            yield rule_shaped_doc(rng, f"r{k}")
        else:
            yield random_doc(rng, f"d{k}", placed=k % 3 == 0)


def doc_of(*sentences):
    return Document("hand", tuple(
        tuple(Token(w, p, s, t) for t, (w, p) in enumerate(sent))
        for s, sent in enumerate(sentences)
    ))


HAND = [
    # A token equal to a designator, tagged noun and unknown, and a
    # designator at sentence start.
    doc_of([("社", "noun"), ("は", "particle"), ("鈴木", "noun"), ("氏", "noun")]),
    doc_of([("銀行", "unknown"), ("メルク", "unknown"), ("社", "unknown"), ("製品", "noun")]),
    # Runs of ・ before and between name parts, and numerals.
    doc_of([("・", "punct"), ("・", "noun"), ("メルク", "noun"), ("・", "punct"),
            ("8", "noun"), ("A社", "company"), ("・", "punct"), ("B社", "company")]),
    doc_of([("2024", "noun"), ("鈴木", "person"), ("・", "punct"), ("・", "punct"),
            ("田中", "person"), ("氏", "person")]),
    # ASCII words inside company names, and ASCII-only names.
    doc_of([("NTTドコモ", "company"), ("は", "particle"), ("IBM", "company"), ("と", "particle"),
            ("提携", "verbal-nominal")]),
    doc_of([("ソニーBMG", "company"), ("x", "company"), ("Ab", "unknown"), ("ABC・DE社", "company")]),
]


def token_text(doc):
    sentences = ["\n".join(f"{t.surface}\t{t.pos}" for t in sent) for sent in doc.sentences]
    return f"#DOC {doc.doc_id}\n" + "\n\n".join(sentences) + "\n#END\n"


def test_reader_equals_the_constructor_path():
    texts = [p.read_text("utf-8") for p in sorted((DATA / "corpus").glob("*.tok"))]
    texts += [token_text(d) for d in documents(101, 150)]
    texts.append("".join(texts[-40:]))  # many documents in one file
    for text in texts:
        assert parse_token_file(text) == parse_token_file_by_constructor(text)


@pytest.mark.parametrize("text", [
    "#DOC a\n\tnoun\n#END\n",
    "#DOC a\nX社\t \n#END\n",
    "#DOC a\nX社\tcompany\tx\n#END\n",
    "#DOC a\n#END\n",
])
def test_reader_refuses_as_before(text):
    with pytest.raises(ParseError) as new:
        parse_token_file(text)
    with pytest.raises(ParseError) as old:
        parse_token_file_by_constructor(text)
    assert str(new.value) == str(old.value)


def test_tokens_still_refuse_empty_text():
    with pytest.raises(ValueError):
        Token("", "noun")


def test_recognition_and_grouping_equal_their_former_bodies():
    for doc in [*HAND, *documents(103)]:
        recognized = recognize_names(doc, LEX)
        assert recognized == recognize_names_by_placing(doc, LEX), doc
        assert group_segments(recognized) == group_segments_by_placing(recognized), doc
        assert group_segments(doc) == group_segments_by_placing(doc), doc


def test_an_unneeded_token_is_passed_through_itself():
    doc = HAND[4]
    out = group_segments(recognize_names(doc, LEX))
    assert all(a is b for a, b in zip(out.sentences[0], doc.sentences[0]))


def test_registry_equals_appends():
    for doc in [*HAND, *documents(107)]:
        for d in (doc, group_segments(recognize_names(doc, LEX))):
            reg, old = build_registry(d), build_registry_by_appends(d)
            assert reg.entries == old.entries
            assert reg._at == old._at


def test_registry_registers_each_english_word_after_its_name():
    reg = build_registry(HAND[5])
    assert [(e.string, e.eg, e.alias_of) for e in reg.entries] == [
        ("ソニーBMG", False, None), ("BMG", True, 1),
        ("x", True, None), ("Ab", True, None),
        ("ABC・DE社", False, None), ("ABC", True, 5), ("DE", True, 5),
    ]


@pytest.mark.parametrize("alternatives, mode, pos_tag", [
    (("提携",), "loose", "VN"),
    (("提携", "販売"), "loose", "VN"),
    (("社", "BM"), "loose", "NP"),
    (("は", "が"), "strict", "P"),
    (("8",), "strict", "N"),
])
def test_literal_rows_equal_the_any_form(alternatives, mode, pos_tag):
    el = PatternElement(ElementKind.LITERAL, alternatives=alternatives, mode=mode, pos_tag=pos_tag)
    hits = 0
    for doc in [*HAND, *documents(109)]:
        for sent in doc.sentences:
            row = el.row(sent)
            assert row == literal_row_by_any(el, sent)
            hits += sum(row)
    assert hits


def test_company_counts_equal_the_appends(resources):
    for doc in documents(113):
        for sent in doc.sentences:
            counts = company_counts_by_appends(sent)
            for m in match_sentence(sent, resources.rules):
                filled = sum(
                    counts[hi] > counts[lo]
                    for i, (lo, hi) in enumerate(m.spans) if m.rule.is_cname[i]
                )
                assert m.cname_filled == filled


def test_compound_runs_equal_the_slices():
    for doc in [*HAND, *documents(127)]:
        for sent in doc.sentences:
            assert compound_runs(sent) == compound_runs_by_slices(sent)
    assert compound_runs(()) == []


def test_topics_and_pronouns_equal_their_former_bodies(resources):
    for doc in [*HAND, *documents(131)]:
        result = extract_document(doc, resources)
        d, reg = result.document, result.registry
        topics = track_topics(d, reg)
        assert topics == track_topics_by_index(d, reg)
        assert resolve_pronouns(d, reg, topics, result.segments) == resolve_pronouns_by_table(
            d, reg, topics, result.segments
        )


def _corpus_docs():
    return [parse_token_file(p.read_text("utf-8"))[0]
            for p in sorted((DATA / "corpus").glob("*.tok"))]


def test_extraction_equals_building_by_keyword_and_copying(resources):
    changed = 0
    for doc in [*_corpus_docs(), *HAND, *documents(137)]:
        result = extract_document(doc, resources)
        assert result == extract_document_by_replace(doc, resources), doc.doc_id
        changed += sum(i.subject_ids != i.partner_ids for i in result.instances)
    assert changed  # some subjects came from pronouns or topics


def test_templates_equal_their_former_bodies(resources):
    for doc in [*_corpus_docs(), *documents(139)]:
        result = extract_document(doc, resources)
        reg = unify_company_references(build_registry(result.document))
        graph = generate_templates(result.document, result.clusters, reg)
        assert graph == generate_templates_by_keywords(result.document, result.clusters, reg)
        assert serialize_templates(graph) == serialize_templates_by_getattr(graph)


def test_serialization_writes_every_slot_as_before():
    graph = TemplateGraph("g", (
        TieUpObject(1, (1, 2), ("合弁会社",), ("開発", "販売"), "DISSOLVED"),
        TieUpObject(2, (2,), warning="UNDER-SPECIFIED"),
    ), (
        EntityObject(1, "田辺製薬", ("田辺",), "COMPANY"),
        EntityObject(2, "メルク"),
    ))
    text = serialize_templates(graph)
    assert text == serialize_templates_by_getattr(graph)
    assert "WARNING: UNDER-SPECIFIED" in text and "ALIASES: 田辺" in text
