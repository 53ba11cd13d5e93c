"""Document-level processing: who is who, and which sentences belong together.

A company registry collects every name and possible abbreviation in text
order.  Abbreviation unification then replaces entries so that all
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

import re

from .records import Record
from .tokens import Document, POS_COMPANY, POS_PERSON, POS_PLACE, POS_UNKNOWN

_CANDIDATE_TAGS = frozenset({POS_COMPANY, POS_PERSON, POS_PLACE, POS_UNKNOWN})

# The paper's pronouns: the current tie-up's partners, the nearest preceding
# company, and the topic company.
PRONOUN_BOTH = "両社"
PRONOUN_NEAR = "同社"
PRONOUN_SELF = "自社"
_PRONOUNS = frozenset({PRONOUN_BOTH, PRONOUN_NEAR, PRONOUN_SELF})

# Case particles that mark the company before them as the sentence's subject.
SUBJECT_MARKERS = frozenset({"が", "は", "も"})


class RegistryEntry(Record):
    """One registered string; unification replaces it by a copy with a new ``entity_id``."""

    __slots__ = ()

    index: int  # 1-based registry position
    string: str
    pos: str
    eg: bool  # surface is solely ASCII letters
    entity_id: int
    position: tuple[int, int]  # (sent_index, tok_index) of the source token
    alias_of: int | None = None  # parent index for derived English-word entries


class CompanyRegistry:
    """Entries in text order, plus one index of the non-alias ones: the
    list index of the first at each position.  It starts empty and grows
    only through ``build_registry``, which keeps the index in step;
    unification replaces entries in place, so an entry fetched before it
    keeps its old id, and the index stays valid."""

    __slots__ = ("entries", "_at")

    def __init__(self):
        self.entries: list[RegistryEntry] = []
        self._at: dict[tuple[int, int], int] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __len__(self) -> int:
        return len(self.entries)

    def entry_at(self, position: tuple[int, int]) -> RegistryEntry | None:
        i = self._at.get(position)
        return None if i is None else self.entries[i]

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

    def canonical_string(self, entity_id: int) -> str:
        return self.entries[entity_id - 1].string


def _is_english_word(s: str) -> bool:
    return s.isascii() and s.isalpha()


def _english_words(s: str) -> list[str]:
    """The runs of two or more ASCII letters in ``s``."""
    return re.findall(r"[A-Za-z]{2,}", s)


# A name holding none of these has no English word to register.
_ASCII_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def build_registry(doc: Document) -> CompanyRegistry:
    """Collect a document's company names and abbreviation candidates in
    text order, each at its token's (sentence, token) index.

    Company tokens are always registered; person, place, and unknown tokens
    are registered as possible abbreviations when two or more characters
    long.  An English word embedded in a company name is additionally
    registered right after its parent so English abbreviations have a
    word-level entry to match exactly.
    """
    reg = CompanyRegistry()
    entries, at = reg.entries, reg._at
    new = tuple.__new__
    for sent in doc.sentences:
        for tok in sent:
            pos = tok.pos
            if pos not in _CANDIDATE_TAGS:
                continue
            string = tok.surface
            if pos != POS_COMPANY and len(string) < 2:
                continue
            position = (tok.sent_index, tok.tok_index)
            parent = len(entries) + 1
            entries.append(new(RegistryEntry, (
                parent, string, pos, _is_english_word(string), parent, position, None
            )))
            at.setdefault(position, parent - 1)
            if pos == POS_COMPANY and not _ASCII_LETTERS.isdisjoint(string):
                for word in _english_words(string):
                    if word != string:
                        index = len(entries) + 1
                        entries.append(new(RegistryEntry, (
                            index, word, pos, True, index, position, parent
                        )))
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
    """Give abbreviations their source's entity id.

    Scans every pair (earlier, later); entries already marked as an
    abbreviation are skipped on both sides.  A later entry joins an earlier
    one when their LCS is at least two characters and spans the whole later
    string; if the earlier entry is an English word the two strings must be
    identical.  A joining entry is replaced by a copy with the new id, in
    place; returns the registry.  Idempotent.
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
            if common == len(tgt.string) and (not src.eg or common == len_src):
                entries[j] = tgt._replace(entity_id=src.entity_id)
    return reg


class TopicState(Record):
    """Per-sentence topic company ids, with inheritance marks."""

    __slots__ = ()

    topics: tuple[frozenset[int], ...]
    inherited: tuple[bool, ...]

    def for_sentence(self, sent_index: int) -> frozenset[int]:
        return self.topics[sent_index]


def track_topics(doc: Document, reg: CompanyRegistry) -> TopicState:
    """Companies immediately followed by a subject marker; else inherited."""
    topics: list[frozenset[int]] = []
    inherited: list[bool] = []
    company_entry_at = reg.company_entry_at
    topic: frozenset[int] = frozenset()
    for s, sent in enumerate(doc.sentences):
        found: set[int] = set()
        for t, tok in enumerate(sent[1:]):
            if tok.surface in SUBJECT_MARKERS:
                entry = company_entry_at((s, t))
                if entry is not None:
                    found.add(entry.entity_id)
        if found:
            topic = frozenset(found)
        topics.append(topic)
        inherited.append(s > 0 and not found)
    return TopicState(tuple(topics), tuple(inherited))


class PronounReference(Record):
    __slots__ = ()

    position: tuple[int, int]
    surface: str
    referent_ids: frozenset[int]


def resolve_pronouns(
    doc: Document,
    reg: CompanyRegistry,
    topics: TopicState,
    segments: list["DiscourseSegment"],
) -> list[PronounReference]:
    """Resolve 両社 / 同社 / 自社 occurrences to entity id sets.

    両社 names the tie-up partner ids of the segment that covers its
    sentence.  A later segment in ``segments`` overwrites an earlier one on
    a sentence they share, so 両社 there names the later tie-up.  同社 reads
    the company mentions before it in its sentence by one forward walk per
    sentence: each 同社 reads the positions after the previous 同社's, once
    each, and the walk keeps the nearest company id read and whether two
    distinct ids were read.  A company-tagged 同社 is read as a mention by
    the next one.  An unresolvable pronoun gets an empty set.
    """
    tieup = None  # each sentence's tie-up partners, built at the first 両社
    company_entry_at = reg.company_entry_at
    new = tuple.__new__
    refs: list[PronounReference] = []
    for s, sent in enumerate(doc.sentences):
        walked, nearest, several = 0, None, False
        for t, tok in enumerate(sent):
            surface = tok.surface
            if surface not in _PRONOUNS:
                continue
            if surface == PRONOUN_BOTH:
                if tieup is None:
                    tieup = {
                        k: seg.tieup_ids
                        for seg in segments
                        for k in range(seg.start, seg.end + 1)
                    }
                ids = tieup.get(s, frozenset())
            elif surface == PRONOUN_NEAR:
                for u in range(walked, t):
                    entry = company_entry_at((s, u))
                    if entry is not None:
                        # Two distinct ids were read iff one differs from the one before.
                        several = several or nearest not in (None, entry.entity_id)
                        nearest = entry.entity_id
                walked = t
                ids = frozenset({nearest}) if several else topics.topics[s]
            else:
                ids = topics.topics[s]
            refs.append(new(PronounReference, ((s, t), surface, frozenset(ids))))
    return refs


class ConceptInstance(Record):
    """One recognized concept occurrence, normalized for merging."""

    __slots__ = ()

    concept: str
    sent_index: int
    source: str  # "concept-search" | "pattern"
    bindings: dict[str, str]
    subject_ids: frozenset[int] = frozenset()
    partner_ids: frozenset[int] = frozenset()


class DiscourseSegment(Record):
    __slots__ = ()

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
    Every segment covers the sentence of its first mention, so tie-ups with
    different partners first mentioned in one sentence share it.
    """
    nsent = len(doc.sentences)
    mentions = sorted(
        (c for c in tieup_concepts if len(c.partner_ids) >= 2),
        key=lambda c: c.sent_index,
    )
    if not mentions:
        return [DiscourseSegment(0, max(nsent - 1, 0), frozenset(), "unlabeled")]

    bounds: list[tuple[int, frozenset[int]]] = []  # (first mention's sentence, ids)
    for c in mentions:
        if not bounds or c.partner_ids != bounds[-1][1]:
            bounds.append((c.sent_index, c.partner_ids))

    segments: list[DiscourseSegment] = []
    seen: set[frozenset[int]] = set()
    for k, (first, ids) in enumerate(bounds):
        start = first if k else 0
        end = max(first, bounds[k + 1][0] - 1) if k + 1 < len(bounds) else nsent - 1
        label = "type-II" if ids in seen else "type-I"
        seen.add(ids)
        segments.append(DiscourseSegment(start, end, ids, label))
    return segments


class TieUpCluster(Record):
    """Everything merged into one tie-up relationship."""

    __slots__ = ()

    segment: DiscourseSegment
    attached: list[ConceptInstance]
    diagnostics: list[ConceptInstance]

    @property
    def tieup_ids(self) -> frozenset[int]:
        return self.segment.tieup_ids


def merge_concepts(
    segment: DiscourseSegment, concepts: list[ConceptInstance]
) -> TieUpCluster:
    """Attach concepts whose subjects intersect the segment's partners.

    Concepts outside the sentence range are ignored; in-range concepts with
    disjoint or empty subjects are kept as diagnostics, not merged.
    """
    attached: list[ConceptInstance] = []
    diagnostics: list[ConceptInstance] = []
    for c in concepts:
        if not segment.covers(c.sent_index):
            continue
        if c.subject_ids & segment.tieup_ids:
            attached.append(c)
        else:
            diagnostics.append(c)
    return TieUpCluster(segment, attached, diagnostics)
