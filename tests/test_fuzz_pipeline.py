"""Randomized end-to-end runs: the pipeline must never crash and its
output graphs must stay well formed on arbitrary tagged input.

Arbitrary tokens almost never match a rule, so every other document is
shaped like the shipped rules instead; those reach segmentation, pronouns
and merging with real tie-ups."""

import random

from tieupkit.pipeline import extract_document
from tieupkit.templates import parse_templates, serialize_templates
from tieupkit.tokens import Document, Token

from ablation import extract_without_discourse
from fuzzing import rule_shaped_doc

SURFACES = [
    "メルセデス・ベンツ", "ベンツ", "A社", "B銀行", "社", "・", "は", "が", "も",
    "と", "を", "の", "提携", "解消", "販売", "開発", "設立", "合弁", "会社",
    "両社", "同社", "自社", "X", "8日", "する", "し", "。", "、", "新日鉄",
]
TAGS = [
    "noun", "verbal-nominal", "verb", "particle", "punct",
    "company", "person", "place", "unknown", "other",
]


def random_doc(rng, doc_id="fuzz"):
    sentences = []
    for si in range(rng.randint(1, 5)):
        sent = [
            Token(rng.choice(SURFACES), rng.choice(TAGS), si, ti)
            for ti in range(rng.randint(1, 14))
        ]
        sentences.append(tuple(sent))
    return Document(doc_id, tuple(sentences))


def mixed_docs(rng, count):
    """``count`` documents, alternately arbitrary and rule-shaped."""
    for n in range(count):
        yield rule_shaped_doc(rng, "fuzz") if n % 2 else random_doc(rng)


def test_random_documents_produce_well_formed_graphs(resources):
    rng = random.Random(131)
    seen = set()
    for doc in mixed_docs(rng, 150):
        result = extract_document(doc, resources)
        text = serialize_templates(result.graph)  # raises on dangling refs
        assert parse_templates(text, doc.doc_id) == result.graph
        # Tie-up refs resolve and entity ids are the 1..n block.
        ids = [e.object_id for e in result.graph.entities]
        assert ids == list(range(1, len(ids) + 1))
        for entity in result.graph.entities:
            assert entity.name not in entity.aliases
            assert len(set(entity.aliases)) == len(entity.aliases)
        for seg in result.segments:
            assert 0 <= seg.start <= seg.end < len(result.document.sentences)
        if any(len(t.entity_refs) >= 2 for t in result.graph.tieups):
            seen.add("tie-up with two partners")
        if any(p.referent_ids for p in result.pronouns):
            seen.add("resolved pronoun")
        if any(c.attached for c in result.clusters):
            seen.add("attached instance")
    assert len(seen) == 3, seen


def test_random_documents_deterministic(resources):
    rng = random.Random(137)
    for doc in mixed_docs(rng, 40):
        first = serialize_templates(extract_document(doc, resources).graph)
        second = serialize_templates(extract_document(doc, resources).graph)
        assert first == second


def test_random_documents_no_discourse_mode(resources):
    rng = random.Random(139)
    partners = 0
    for doc in mixed_docs(rng, 80):
        result = extract_without_discourse(doc, resources)
        text = serialize_templates(result.graph)
        assert parse_templates(text, doc.doc_id) == result.graph
        partners += sum(len(t.entity_refs) >= 2 for t in result.graph.tieups)
    assert partners


def test_topic_totality_on_random_documents(resources):
    rng = random.Random(149)
    for doc in mixed_docs(rng, 80):
        result = extract_document(doc, resources)
        assert len(result.topics.topics) == len(result.document.sentences)
        for s in range(len(result.document.sentences)):
            result.topics.for_sentence(s)  # defined for every sentence