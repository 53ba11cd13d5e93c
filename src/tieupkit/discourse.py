"""Document-level processing: who is who, and which sentences belong together.

A company registry collects every name and possible abbreviation in text
order.  Abbreviation unification then rewrites entry ids so that all
references to one company share the id of its earliest mention: a later
entry is an abbreviation of an earlier one when their longest common
subsequence covers the whole later string (two characters minimum), and an
all-ASCII source must match exactly.  Topic companies are read off subject
case markers and inherited across subjectless sentences; 両社/同社/自社 are
resolved from the current tie-up, the nearest preceding company, and the
topic set.  Finally the text is cut into segments whenever a tie-up with a
different partner-id set appears, and concepts merge into a segment's
cluster when their subjects intersect its partners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tokens import Document, POS_COMPANY, POS_PERSON, POS_PLACE, POS_UNKNOWN

_CANDIDATE_TAGS = frozenset({POS_COMPANY, POS_PERSON, POS_PLACE, POS_UNKNOWN})


@dataclass(frozen=True)
class DiscourseConfig:
    """Pronoun inventory and subject-marker set (configurable)."""

    pronoun_both: str = "両社"
    pronoun_near: str = "同社"
    pronoun_self: str = "自社"
    subject_markers: tuple[str, ...] = ("が", "は", "も")

    @property
    def pronouns(self) -> frozenset[str]:
        return frozenset({self.pronoun_both, self.pronoun_near, self.pronoun_self})


@dataclass
class RegistryEntry:
    index: int  # 1-based registry position
    string: str
    pos: str
    eg: bool  # surface is solely ASCII letters
    entity_id: int
    position: tuple[int, int]  # (sent_index, tok_index) of the source token
    alias_of: int | None = None  # parent index for derived English-word entries


@dataclass
class CompanyRegistry:
    entries: list[RegistryEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def entry_at(self, position: tuple[int, int]) -> RegistryEntry | None:
        for e in self.entries:
            if e.position == position and e.alias_of is None:
                return e
        return None

    def is_company_reference(self, entry: RegistryEntry) -> bool:
        """Company-tagged, or unified with an entry that is.

        After unification an abbreviation carries its source's id, so a
        later ベンツ tagged unknown still reads as a company mention.
        """
        canonical = self.entries[entry.entity_id - 1]
        return POS_COMPANY in (entry.pos, canonical.pos)

    def company_entry_at(self, position: tuple[int, int]) -> RegistryEntry | None:
        entry = self.entry_at(position)
        if entry is not None and self.is_company_reference(entry):
            return entry
        return None

    def companies_in_sentence(self, sent_index: int) -> list[RegistryEntry]:
        return [
            e
            for e in self.entries
            if e.alias_of is None
            and e.position[0] == sent_index
            and self.is_company_reference(e)
        ]

    def canonical_string(self, entity_id: int) -> str:
        return self.entries[entity_id - 1].string


def _is_english_word(s: str) -> bool:
    return bool(s) and all("A" <= c <= "Z" or "a" <= c <= "z" for c in s)


def _english_words(s: str) -> list[str]:
    words = []
    current = []
    for c in s:
        if "A" <= c <= "Z" or "a" <= c <= "z":
            current.append(c)
        elif current:
            words.append("".join(current))
            current = []
    if current:
        words.append("".join(current))
    return [w for w in words if len(w) >= 2]


def _append_entry(reg: CompanyRegistry, string: str, pos: str, position, alias_of=None):
    index = len(reg.entries) + 1
    reg.entries.append(
        RegistryEntry(index, string, pos, _is_english_word(string), index, position, alias_of)
    )


def build_registry(
    surfaces: list[tuple[str, str, tuple[int, int]]] | None = None,
    doc: Document | None = None,
) -> CompanyRegistry:
    """Collect company names and abbreviation candidates in text order.

    Company tokens are always registered; person, place, and unknown tokens
    are registered as possible abbreviations when two or more characters
    long.  An English word embedded in a company name is additionally
    registered right after its parent so English abbreviations have a
    word-level entry to match exactly.
    """
    if (surfaces is None) == (doc is None):
        raise ValueError("pass exactly one of surfaces or doc")
    if doc is not None:
        surfaces = [
            (t.surface, t.pos, (t.sent_index, t.tok_index))
            for t in doc.tokens()
            if t.pos in _CANDIDATE_TAGS
        ]
    reg = CompanyRegistry()
    for string, pos, position in surfaces:
        if pos not in _CANDIDATE_TAGS:
            raise ValueError(f"not a registrable tag: {pos}")
        if pos != POS_COMPANY and len(string) < 2:
            continue
        _append_entry(reg, string, pos, position)
        if pos == POS_COMPANY:
            parent = len(reg.entries)
            for word in _english_words(string):
                if word != string:
                    _append_entry(reg, word, pos, position, alias_of=parent)
    return reg


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence, by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def unify_company_references(reg: CompanyRegistry) -> CompanyRegistry:
    """Rewrite entity ids so abbreviations share their source's id.

    Scans every pair (earlier, later); entries already marked as an
    abbreviation are skipped on both sides.  A later entry joins an earlier
    one when their LCS is at least two characters and spans the whole later
    string; if the earlier entry is an English word the two strings must be
    identical.  Runs in place and returns the registry; idempotent.
    """
    entries = reg.entries
    cmax = len(entries)
    for i in range(cmax):
        src = entries[i]
        if src.entity_id != src.index:
            continue  # already recognized as an abbreviation
        len_src = len(src.string)
        for j in range(i + 1, cmax):
            tgt = entries[j]
            if tgt.entity_id != tgt.index:
                continue
            common = lcs_length(src.string, tgt.string)
            if common < 2:
                continue
            if src.eg:
                if len_src == common == len(tgt.string):
                    tgt.entity_id = src.entity_id
            elif common == len(tgt.string):
                tgt.entity_id = src.entity_id
    return reg


@dataclass(frozen=True)
class TopicState:
    """Per-sentence topic company ids, with inheritance marks."""

    topics: tuple[frozenset[int], ...]
    inherited: tuple[bool, ...]

    def for_sentence(self, sent_index: int) -> frozenset[int]:
        return self.topics[sent_index]


def track_topics(
    doc: Document, reg: CompanyRegistry, config: DiscourseConfig = DiscourseConfig()
) -> TopicState:
    """Companies immediately followed by a subject marker; else inherited."""
    topics: list[frozenset[int]] = []
    inherited: list[bool] = []
    for s, sent in enumerate(doc.sentences):
        found: set[int] = set()
        for t in range(len(sent) - 1):
            if sent[t + 1].surface in config.subject_markers:
                entry = reg.company_entry_at((s, t))
                if entry is not None:
                    found.add(entry.entity_id)
        if found:
            topics.append(frozenset(found))
            inherited.append(False)
        else:
            topics.append(topics[s - 1] if s > 0 else frozenset())
            inherited.append(s > 0)
    return TopicState(tuple(topics), tuple(inherited))


@dataclass(frozen=True)
class PronounReference:
    position: tuple[int, int]
    surface: str
    referent_ids: frozenset[int]


def resolve_pronouns(
    doc: Document,
    reg: CompanyRegistry,
    topics: TopicState,
    current_tieup: dict[int, frozenset[int]] | None = None,
    config: DiscourseConfig = DiscourseConfig(),
) -> list[PronounReference]:
    """Resolve 両社 / 同社 / 自社 occurrences to entity id sets.

    ``current_tieup`` maps a sent_index to the tie-up partner ids in force
    at that sentence; None means no tie-up anywhere.  An unresolvable
    pronoun gets an empty set.
    """
    if current_tieup is None:
        current_tieup = {}

    refs: list[PronounReference] = []
    for s, sent in enumerate(doc.sentences):
        for t, tok in enumerate(sent):
            if tok.surface not in config.pronouns:
                continue
            if tok.surface == config.pronoun_both:
                ids = current_tieup.get(s, frozenset())
            elif tok.surface == config.pronoun_near:
                preceding = [
                    e for e in reg.companies_in_sentence(s) if e.position[1] < t
                ]
                distinct = {e.entity_id for e in preceding}
                if len(distinct) >= 2:
                    ids = frozenset({preceding[-1].entity_id})
                else:
                    ids = topics.for_sentence(s)
            else:
                ids = topics.for_sentence(s)
            refs.append(PronounReference((s, t), tok.surface, frozenset(ids)))
    return refs


@dataclass(frozen=True)
class ConceptInstance:
    """One recognized concept occurrence, normalized for merging."""

    concept: str
    sent_index: int
    source: str  # "concept-search" | "pattern"
    bindings: dict[str, str] = field(default_factory=dict)
    subject_ids: frozenset[int] = frozenset()
    partner_ids: frozenset[int] = frozenset()

    def __hash__(self):
        return hash((self.concept, self.sent_index, self.source, tuple(sorted(self.bindings.items()))))


@dataclass(frozen=True)
class DiscourseSegment:
    start: int  # sentence range, inclusive
    end: int
    tieup_ids: frozenset[int]
    structure_label: str = "unlabeled"  # diagnostic only

    def covers(self, sent_index: int) -> bool:
        return self.start <= sent_index <= self.end


def segment_discourse(
    doc: Document, tieup_concepts: list[ConceptInstance]
) -> list[DiscourseSegment]:
    """Cut the document whenever a tie-up with different partners appears.

    Only instances naming at least two partner ids count as tie-up
    mentions; everything else stays in the current segment.  With no
    tie-up mention at all the whole document is one unlabeled segment.
    """
    nsent = len(doc.sentences)
    mentions = sorted(
        (c for c in tieup_concepts if len(c.partner_ids) >= 2),
        key=lambda c: c.sent_index,
    )
    if not mentions:
        return [DiscourseSegment(0, max(nsent - 1, 0), frozenset(), "unlabeled")]

    bounds: list[tuple[int, frozenset[int]]] = []
    for c in mentions:
        if not bounds:
            bounds.append((0, c.partner_ids))
        elif c.partner_ids != bounds[-1][1]:
            bounds.append((c.sent_index, c.partner_ids))

    segments: list[DiscourseSegment] = []
    seen: list[frozenset[int]] = []
    for k, (start, ids) in enumerate(bounds):
        end = bounds[k + 1][0] - 1 if k + 1 < len(bounds) else nsent - 1
        label = "type-II" if ids in seen else "type-I"
        seen.append(ids)
        segments.append(DiscourseSegment(start, end, ids, label))
    return segments


@dataclass
class TieUpCluster:
    """Everything merged into one tie-up relationship."""

    segment: DiscourseSegment
    tieup_ids: frozenset[int]
    attached: list[ConceptInstance] = field(default_factory=list)
    diagnostics: list[ConceptInstance] = field(default_factory=list)


def merge_concepts(
    segment: DiscourseSegment, concepts: list[ConceptInstance]
) -> TieUpCluster:
    """Attach concepts whose subjects intersect the segment's partners.

    Concepts outside the sentence range are ignored; in-range concepts with
    disjoint or empty subjects are kept as diagnostics, not merged.
    """
    cluster = TieUpCluster(segment, segment.tieup_ids)
    for c in concepts:
        if not segment.covers(c.sent_index):
            continue
        if c.subject_ids & segment.tieup_ids:
            cluster.attached.append(c)
        else:
            cluster.diagnostics.append(c)
    return cluster
