"""Ablation harness: the extraction pipeline with discourse components
replaced by neutral forms, built on the test side so that ``src/`` keeps one
pipeline.  Each row takes a document and the resources and returns an
``ExtractionResult`` shaped like ``extract_document``'s.

The rows reuse the pipeline's sentence stage (``pipeline._sentence_stage``
and ``pipeline._match_instances``), so they cannot drift from it.
"""

from tieupkit import discourse as disc
from tieupkit import pipeline
from tieupkit.pipeline import ExtractionResources, ExtractionResult
from tieupkit.templates import generate_templates
from tieupkit.tokens import Document


def extract_without_discourse(doc: Document, resources: ExtractionResources) -> ExtractionResult:
    """No discourse: one tie-up per best match with company variables.

    Skips unification, topics, pronouns, segmentation, and merging; useful
    for isolating pattern-stage behavior.  Each tie-up's segment is its own
    sentence, and no topics are tracked.  Output graphs stay well formed
    and reference-closed.
    """
    doc, reg, hits, winners = pipeline._sentence_stage(doc, resources)
    instances, _ = pipeline._match_instances(doc, winners, reg, resources)
    clusters = []
    for inst in instances:
        if not inst.bindings:
            continue
        seg = disc.DiscourseSegment(inst.sent_index, inst.sent_index, inst.partner_ids)
        clusters.append(disc.TieUpCluster(seg, [inst], []))
    graph = generate_templates(doc, clusters, reg)
    topics = disc.TopicState((frozenset(),) * len(doc.sentences), (False,) * len(doc.sentences))
    segments = [c.segment for c in clusters]
    return ExtractionResult(
        graph, doc, reg, topics, winners, hits, segments, clusters, [], instances
    )
