"""End-to-end extraction: token file in, template graph out.

Stage order: name recognition and grouping, registry build, per-sentence
concept search and pattern matching with best-match selection (the sentence
stage, shared with the no-discourse ablation), reference unification, topic
tracking, discourse segmentation, pronoun resolution, concept merging,
template generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import concepts as concepts_mod
from . import discourse as disc
from . import patterns as patterns_mod
from . import tokens as tokens_mod
from .templates import TemplateGraph, generate_templates
from .tokens import Document

# Noun-like tags eligible for the trailing compound of a created-company span.
_CREATED_TAIL_TAGS = concepts_mod.NOUN_LIKE


@dataclass
class ExtractionResources:
    """Parsed lexicons and rules shared across documents."""

    designators: tokens_mod.DesignatorLexicon
    concept_lexicon: concepts_mod.ConceptLexicon
    rules: list[patterns_mod.PatternRule]
    concept_map: dict[str, str] = field(default_factory=dict)
    discourse: disc.DiscourseConfig = disc.DiscourseConfig()

    def concept_label(self, group: str) -> str:
        return self.concept_map.get(group, group)


@dataclass
class ExtractionResult:
    graph: TemplateGraph
    document: Document  # after name recognition and grouping
    registry: disc.CompanyRegistry
    topics: disc.TopicState
    winners: list[patterns_mod.PatternMatch]
    hits: list[concepts_mod.ConceptHit]
    segments: list[disc.DiscourseSegment]
    clusters: list[disc.TieUpCluster]
    pronouns: list[disc.PronounReference]
    instances: list[disc.ConceptInstance]


def _span_company_ids(sentence, span, reg, pronoun_refs, config) -> frozenset[int]:
    """Unified ids of companies and resolved pronouns inside a token span."""
    ids: set[int] = set()
    lo, hi = span
    if not sentence:
        return frozenset()
    s = sentence[0].sent_index
    for t in range(lo, hi):
        entry = reg.company_entry_at((s, t))
        if entry is not None:
            ids.add(entry.entity_id)
        elif pronoun_refs is not None and sentence[t].surface in config.pronouns:
            ids.update(pronoun_refs.get((s, t), frozenset()))
    return frozenset(ids)


def _created_company_text(sentence, span) -> str | None:
    """Trailing noun compound of a created-object span, if any."""
    lo, hi = span
    end = hi
    start = end
    while start > lo and sentence[start - 1].pos in _CREATED_TAIL_TAGS:
        start -= 1
    if start == end:
        return None
    return "".join(t.surface for t in sentence[start:end])


def _match_instances(
    doc, winners, reg, resources, pronoun_refs, topics=None
) -> list[disc.ConceptInstance]:
    """Concept instances for best matches, with ids resolved per span.

    With ``topics``, an instance whose spans name no company or resolved
    pronoun takes its sentence's topic set as subjects.
    """
    config = resources.discourse
    instances = []
    for m in winners:
        sentence = doc.sentences[m.sent_index]
        label = resources.concept_label(m.group)
        partner_ids: set[int] = set()
        subject_ids: set[int] = set()
        bindings: dict[str, str] = {}
        for name, span in m.bindings.items():
            if not name.startswith(patterns_mod.CNAME_PREFIX):
                continue
            bindings[name] = "".join(t.surface for t in sentence[span[0] : span[1]])
            span_ids = _span_company_ids(sentence, span, reg, pronoun_refs, config)
            subject_ids.update(span_ids)
            partner_ids.update(
                _span_company_ids(sentence, span, reg, None, config)
            )
            if "_CREATED" in name:
                created = _created_company_text(sentence, span)
                if created:
                    bindings["created"] = created
        if label == "ECONOMIC-ACTIVITY":
            lo, hi = m.spans[_index_span(m, resources)]
            bindings["activity"] = "".join(t.surface for t in sentence[lo:hi])
        if not subject_ids and topics is not None:
            subject_ids = topics.for_sentence(m.sent_index)
        instances.append(
            disc.ConceptInstance(
                concept=label,
                sent_index=m.sent_index,
                source="pattern",
                bindings=bindings,
                subject_ids=frozenset(subject_ids),
                partner_ids=frozenset(partner_ids),
            )
        )
    return instances


def _index_span(match, resources) -> int:
    for rule in resources.rules:
        if rule.name == match.rule_name:
            return rule.index_field - 1
    raise ValueError(f"match for unknown rule {match.rule_name}")


def _sentence_stage(doc: Document, resources: ExtractionResources):
    """Names, units, registry, then per-sentence concept hits and best matches."""
    doc = tokens_mod.recognize_names(doc, resources.designators)
    doc = tokens_mod.group_segments(doc)
    reg = disc.build_registry(doc=doc)

    hits: list[concepts_mod.ConceptHit] = []
    winners: list[patterns_mod.PatternMatch] = []
    for sentence in doc.sentences:
        hits.extend(concepts_mod.find_concepts(sentence, resources.concept_lexicon))
        matches = patterns_mod.match_sentence(sentence, resources.rules)
        winners.extend(patterns_mod.select_best(matches))
    return doc, reg, hits, winners


def extract_document(doc: Document, resources: ExtractionResources) -> ExtractionResult:
    config = resources.discourse
    doc, reg, hits, winners = _sentence_stage(doc, resources)
    # The sentence stage never reads entity ids, so unification and topic
    # tracking can follow it.
    disc.unify_company_references(reg)
    topics = disc.track_topics(doc, reg, config)

    # Segmentation sees only company tokens; pronouns resolve afterward
    # against each segment's tie-up and feed the final subject sets.
    pre_instances = _match_instances(doc, winners, reg, resources, None)
    segments = disc.segment_discourse(doc, pre_instances)

    tieup_by_sentence = {
        s: seg.tieup_ids
        for seg in segments
        for s in range(seg.start, seg.end + 1)
    }
    pronouns = disc.resolve_pronouns(doc, reg, topics, tieup_by_sentence, config)
    pronoun_refs = {p.position: p.referent_ids for p in pronouns}

    instances = _match_instances(doc, winners, reg, resources, pronoun_refs, topics)
    for hit in hits:
        instances.append(
            disc.ConceptInstance(
                concept=hit.concept_name,
                sent_index=hit.sent_index,
                source="concept-search",
                subject_ids=topics.for_sentence(hit.sent_index),
            )
        )

    clusters = [
        disc.merge_concepts(seg, instances) for seg in segments if seg.tieup_ids
    ]
    graph = generate_templates(doc, clusters, reg)
    return ExtractionResult(
        graph, doc, reg, topics, winners, hits, segments, clusters, pronouns, instances
    )


def extract_document_no_discourse(
    doc: Document, resources: ExtractionResources
) -> ExtractionResult:
    """Ablation mode: one tie-up per best match with company variables.

    Skips unification, topics, pronouns, segmentation, and merging; useful
    for isolating pattern-stage behavior.  Output graphs stay well formed
    and reference-closed.
    """
    doc, reg, hits, winners = _sentence_stage(doc, resources)
    instances = _match_instances(doc, winners, reg, resources, None)
    clusters = []
    for inst in instances:
        if not inst.bindings:
            continue
        seg = disc.DiscourseSegment(inst.sent_index, inst.sent_index, inst.partner_ids)
        cluster = disc.TieUpCluster(seg, inst.partner_ids, attached=[inst])
        clusters.append(cluster)
    graph = generate_templates(doc, clusters, reg)
    topics = disc.TopicState((frozenset(),) * len(doc.sentences), (False,) * len(doc.sentences))
    return ExtractionResult(
        graph, doc, reg, topics, winners, hits, [], clusters, [], instances
    )
