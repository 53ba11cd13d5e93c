"""End-to-end extraction: token file in, template graph out.

Stage order: name recognition and grouping, registry build, per-sentence
concept search and pattern matching with best-match selection (the sentence
stage, which the test-side ablation harness, ``tests/ablation.py``, shares),
reference unification, topic tracking, discourse segmentation, pronoun
resolution, concept merging, template generation.

A pattern instance's subjects, which decide the tie-up it merges into, are
the companies named in its ``@CNAME`` spans plus the referents of any pronoun
there that is not itself a company mention; with none, its sentence's topics.
A concept-search instance's subjects are its sentence's topics.  One walk
over the spans finds both the companies and the positions a pronoun may hold.

The sentence stage's per-sentence loop runs with the cyclic garbage
collector paused.  Matching makes no reference cycles, and every match it
builds stays alive until selection, so a collection there walks them all and
frees none; reference counting frees each sentence's matches as the loop
drops them.  The collector is left as the caller had it, also when matching
raises.
"""

import gc
from typing import NamedTuple

from . import concepts as concepts_mod
from . import discourse as disc
from . import patterns as patterns_mod
from . import tokens as tokens_mod
from .templates import TemplateGraph, generate_templates
from .tokens import Document


class ExtractionResources(NamedTuple):
    """Parsed lexicons and rules shared across documents."""

    designators: tokens_mod.DesignatorLexicon
    concept_lexicon: concepts_mod.ConceptLexicon
    rules: list[patterns_mod.PatternRule]
    concept_map: dict[str, str]


class ExtractionResult(NamedTuple):
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


def _created_company_text(sentence, span) -> str | None:
    """Trailing noun-like compound of a created-object span, if any."""
    lo, hi = span
    if sentence[hi - 1].pos not in concepts_mod.NOUN_LIKE:
        return None
    return concepts_mod.compound_runs(sentence[lo:hi])[-1][0]


def _match_instances(doc, winners, reg, resources):
    """Concept instances for best matches, each with the positions in its
    ``@CNAME`` spans that are not company mentions.

    The partner ids, and for now the subjects, are the companies named in the
    spans; a pronoun at one of the other positions may name more subjects
    once pronouns are resolved.
    """
    instances: list[disc.ConceptInstance] = []
    others: list[list[tuple[int, int]]] = []
    for m in winners:
        s, rule = m.sent_index, m.rule
        sentence = doc.sentences[s]
        label = resources.concept_map.get(m.group, m.group)
        partner_ids: set[int] = set()
        rest: list[tuple[int, int]] = []
        bindings: dict[str, str] = {}
        for i, name in rule.variables:
            if not rule.is_cname[i]:
                continue
            lo, hi = span = m.spans[i]
            bindings[name] = "".join(t.surface for t in sentence[lo:hi])
            for t in range(lo, hi):
                entry = reg.company_entry_at((s, t))
                if entry is None:
                    rest.append((s, t))
                else:
                    partner_ids.add(entry.entity_id)
            if "_CREATED" in name:
                created = _created_company_text(sentence, span)
                if created:
                    bindings["created"] = created
        if label == "ECONOMIC-ACTIVITY":
            lo, hi = m.spans[rule.index_field - 1]
            bindings["activity"] = "".join(t.surface for t in sentence[lo:hi])
        instances.append(
            disc.ConceptInstance(
                concept=label,
                sent_index=s,
                source="pattern",
                bindings=bindings,
                subject_ids=frozenset(partner_ids),
                partner_ids=frozenset(partner_ids),
            )
        )
        others.append(rest)
    return instances, others


def _sentence_stage(doc: Document, resources: ExtractionResources):
    """Names, units, registry, then per-sentence concept hits and best matches."""
    doc = tokens_mod.recognize_names(doc, resources.designators)
    doc = tokens_mod.group_segments(doc)
    reg = disc.build_registry(doc)

    hits: list[concepts_mod.ConceptHit] = []
    winners: list[patterns_mod.PatternMatch] = []
    # The cyclic collector is paused here (see the module docstring).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for sentence in doc.sentences:
            hits.extend(concepts_mod.find_concepts(sentence, resources.concept_lexicon))
            matches = patterns_mod.match_sentence(sentence, resources.rules)
            winners.extend(patterns_mod.select_best(matches))
            del matches
    finally:
        if was_enabled:
            gc.enable()
    return doc, reg, hits, winners


def extract_document(doc: Document, resources: ExtractionResources) -> ExtractionResult:
    doc, reg, hits, winners = _sentence_stage(doc, resources)
    # The sentence stage never reads entity ids, so unification and topic
    # tracking can follow it.
    disc.unify_company_references(reg)
    topics = disc.track_topics(doc, reg)

    # Segmentation sees only company tokens; pronouns resolve afterward
    # against each segment's tie-up and feed the final subject sets.
    instances, others = _match_instances(doc, winners, reg, resources)
    segments = disc.segment_discourse(doc, instances)
    pronouns = disc.resolve_pronouns(doc, reg, topics, segments)
    pronoun_refs = {p.position: p.referent_ids for p in pronouns}

    instances = [
        inst._replace(
            subject_ids=inst.partner_ids.union(*(pronoun_refs.get(p, ()) for p in rest))
            or topics.for_sentence(inst.sent_index)
        )
        for inst, rest in zip(instances, others)
    ]
    for hit in hits:
        instances.append(
            disc.ConceptInstance(
                concept=hit.concept_name,
                sent_index=hit.sent_index,
                source="concept-search",
                bindings={},
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

