"""Corporate tie-up extraction from POS-tagged Japanese news text.

The pipeline recognizes proper names around designators, finds concepts by
keyword search over run-time noun compounds, matches template patterns with
a finite-state enumerator, unifies company references (abbreviations by
longest common subsequence, pronouns by discourse heuristics), segments the
text by tie-up, merges concepts into template object graphs, and scores
output against answer keys with slot-fill metrics.
"""

from .concepts import ConceptHit, ConceptLexicon, compound_runs, find_concepts, load_concept_lexicon
from .discourse import (
    CompanyRegistry,
    ConceptInstance,
    DiscourseSegment,
    TieUpCluster,
    TopicState,
    build_registry,
    lcs_length,
    merge_concepts,
    resolve_pronouns,
    segment_discourse,
    track_topics,
    unify_company_references,
)
from .errors import DanglingReferenceError, ParseError, TieupkitError
from .patterns import (
    PatternElement,
    PatternMatch,
    PatternRule,
    load_concept_map,
    match_sentence,
    parse_pattern_file,
    select_best,
)
from .pipeline import ExtractionResources, ExtractionResult, extract_document
from .scoring import (
    FillScore,
    Metrics,
    ScoreCounts,
    align_and_count,
    compute_metrics,
    score_documents,
    score_fills,
)
from .templates import (
    EntityObject,
    TemplateGraph,
    TieUpObject,
    generate_templates,
    parse_templates,
    serialize_templates,
)
from .tokens import (
    DesignatorLexicon,
    Document,
    Token,
    group_segments,
    load_designator_lexicon,
    parse_document,
    parse_token_file,
    recognize_names,
    serialize_token_file,
)

__version__ = "0.1.0"
