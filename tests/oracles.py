"""Independent brute-force oracles the engine is checked against.

Everything here favors obviousness over speed and shares no code with the
implementations under test.  The template parser and the scorer as they
were before their per-document fixed cost was cut are kept verbatim at the
end of this file; ``align_by_sorting`` borrows that scorer's per-pair count.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from tieupkit.patterns import ElementKind, PatternMatch, PatternRule
from tieupkit.concepts import NOUN_LIKE, ConceptHit, compound_runs
from tieupkit.errors import DanglingReferenceError, ParseError
from tieupkit.templates import _BY_TYPE, LAYOUT, EntityObject, TemplateGraph, TieUpObject
from tieupkit.tokens import (
    _ANCHOR_ELIGIBLE,
    CONNECTOR,
    ENTITY_TAGS,
    Document,
    Token,
    _backward_ok,
    _forward_ok,
)


def lcs_by_enumeration(a: str, b: str) -> int:
    """LCS length by enumerating subsequences of the shorter string."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subsequence(needle: str, haystack: str) -> bool:
        it = iter(haystack)
        return all(c in it for c in needle)

    for length in range(len(short), 0, -1):
        seen = set()
        for idxs in combinations(range(len(short)), length):
            candidate = "".join(short[i] for i in idxs)
            if candidate in seen:
                continue
            seen.add(candidate)
            if is_subsequence(candidate, long_):
                return length
    return 0


def enumerate_matches(sentence, rule: PatternRule) -> set[tuple[tuple[int, int], ...]]:
    """All element-to-span assignments, by naive nested recursion."""
    n = len(sentence)
    found: set[tuple[tuple[int, int], ...]] = set()

    def walk(elements, pos, acc):
        if not elements:
            found.add(tuple(acc))
            return
        el = elements[0]
        if el.kind is ElementKind.LITERAL:
            if pos < n and el.matches_token(sentence[pos]):
                walk(elements[1:], pos + 1, acc + [(pos, pos + 1)])
        else:
            minimum = 0 if el.kind is ElementKind.SKIP else 1
            for width in range(minimum, n - pos + 1):
                walk(elements[1:], pos + width, acc + [(pos, pos + width)])

    for start in range(n + 1):
        walk(list(rule.elements), start, [])
    return found


def enumerate_in_order(sentence, rule: PatternRule) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """(spans, filled company-name variables) per assignment, in the order
    the matcher must produce them.

    The recursion is the matcher's former one, which judged each literal
    against the token afresh; a company-name variable counts as filled when
    a token of its span is tagged ``company``.
    """
    n = len(sentence)
    elements = rule.elements
    results: list[tuple[tuple[int, int], ...]] = []

    def extend(ei: int, pos: int, spans: tuple[tuple[int, int], ...]):
        if ei == len(elements):
            results.append(spans)
            return
        el = elements[ei]
        if el.kind is ElementKind.LITERAL:
            if pos < n and el.matches_token(sentence[pos]):
                extend(ei + 1, pos + 1, spans + ((pos, pos + 1),))
        elif el.kind is ElementKind.SKIP:
            for end in range(pos, n + 1):
                extend(ei + 1, end, spans + ((pos, end),))
        else:
            for end in range(pos + 1, n + 1):
                extend(ei + 1, end, spans + ((pos, end),))

    for start in range(n + 1):
        extend(0, start, ())

    out = []
    for spans in results:
        cname = 0
        for el, (lo, hi) in zip(elements, spans):
            if (
                el.kind is ElementKind.VARIABLE
                and el.name.startswith("@CNAME")
                and any(t.pos == "company" for t in sentence[lo:hi])
            ):
                cname += 1
        out.append((spans, cname))
    return out


def literal_accepts(alternatives, mode: str, pos_tag: str, surface: str, pos: str) -> bool:
    """A literal's verdict on one token, from the README's pattern-file rules.

    ``P``, ``V``, ``VN``, ``N`` and ``PUNCT`` stand for the reserved tags
    ``particle``, ``verb``, ``verbal-nominal``, ``noun`` and ``punct``;
    ``NP`` accepts the grouped name units ``company``, ``person`` and
    ``place`` as well as a token tagged ``NP``; any other tag must equal the
    token's tag.  ``strict`` wants the whole surface to be an alternative,
    ``loose`` an alternative anywhere inside it.
    """
    long_forms = {
        "P": ["particle"],
        "V": ["verb"],
        "VN": ["verbal-nominal"],
        "N": ["noun"],
        "PUNCT": ["punct"],
        "NP": ["NP", "company", "person", "place"],
    }
    if pos not in long_forms.get(pos_tag, [pos_tag]):
        return False
    for alt in alternatives:
        if mode == "strict" and surface == alt:
            return True
        if mode == "loose" and surface.find(alt) >= 0:
            return True
    return False


def match_fields(sentence, rule: PatternRule, spans) -> dict:
    """A match's derived fields, recomputed from its rule and spans."""
    bindings = {}
    occurrences: dict[str, int] = {}
    cname_filled = 0
    for el, (lo, hi) in zip(rule.elements, spans):
        if el.kind is not ElementKind.VARIABLE:
            continue
        occurrences[el.name] = occurrences.get(el.name, 0) + 1
        nth = occurrences[el.name]
        bindings[el.name if nth == 1 else f"{el.name}#{nth}"] = (lo, hi)
        tags = [t.pos for t in sentence[lo:hi]]
        if el.name[:6] == "@CNAME" and "company" in tags:
            cname_filled += 1
    name = rule.name
    while name and name[-1].isdecimal():
        name = name[:-1]
    return {
        "bindings": bindings,
        "cname_filled": cname_filled,
        "consumed": spans[-1][1] - spans[0][0],
        "elements_matched": sum(1 for el in rule.elements if el.kind is not ElementKind.SKIP),
        "group": name,
    }


def match_set(matches: list[PatternMatch]) -> set[tuple[str, tuple[tuple[int, int], ...]]]:
    return {(m.rule_name, m.spans) for m in matches}


def concept_hits_by_scan(sentence, lex) -> set[tuple[str, int]]:
    """(concept, run start) pairs by scanning every contiguous span.

    A span is a candidate run when it is a maximal block of noun-like
    tokens, or a single token of any other kind.
    """
    noun_like = {"noun", "verbal-nominal", "unknown", "company", "person", "place"}
    n = len(sentence)
    hits = set()
    for start in range(n):
        for end in range(start + 1, n + 1):
            toks = sentence[start:end]
            if all(t.pos in noun_like for t in toks):
                before_ok = start == 0 or sentence[start - 1].pos not in noun_like
                after_ok = end == n or sentence[end].pos not in noun_like
                if not (before_ok and after_ok):
                    continue
            elif len(toks) == 1 and toks[0].pos not in noun_like:
                pass
            else:
                continue
            run = "".join(t.surface for t in toks)
            for name, keywords in lex.entries:
                if any(kw.matches(run) for kw in keywords):
                    hits.add((name, start))
    return hits


def find_concepts_ungated(sentence, lex) -> list:
    """The concept search's former loop: every key word tried on every run."""
    if not sentence:
        return []
    sent_index = sentence[0].sent_index
    hits = []
    for run, start, _count in compound_runs(sentence):
        for name, keywords in lex.entries:
            for kw in keywords:
                if kw.matches(run):
                    hits.append(ConceptHit(name, sent_index, run, kw, start))
                    break
    return hits


def exhaustive_align_cor(response, key) -> int:
    """Maximum total correct fills over all object pairings (small graphs).

    Entities pair first; tie-up reference fills count as correct when the
    referenced objects are paired together.
    """

    def entity_fills(e):
        fills = []
        if e.name:
            fills.append(("NAME", e.name))
        fills.extend(("ALIASES", a) for a in e.aliases)
        if e.entity_type:
            fills.append(("TYPE", e.entity_type))
        return fills

    def tieup_fills(t, ref_map):
        fills = [("ENTITIES", ("ref", ref_map.get(r, ("miss", r)))) for r in t.entity_refs]
        fills.extend(("JV-COMPANY", v) for v in t.jv_company)
        fills.extend(("ACTIVITY", v) for v in t.activities)
        if t.status:
            fills.append(("STATUS", t.status))
        if t.warning:
            fills.append(("WARNING", t.warning))
        return fills

    def count_common(fa, fb):
        fb = list(fb)
        shared = 0
        for f in fa:
            if f in fb:
                shared += 1
                fb.remove(f)
        return shared

    def pairings(resp_objs, key_objs):
        if not resp_objs or not key_objs:
            yield []
            return
        r = resp_objs[0]
        yield from pairings(resp_objs[1:], key_objs)
        for i, k in enumerate(key_objs):
            rest = key_objs[:i] + key_objs[i + 1 :]
            for tail in pairings(resp_objs[1:], rest):
                yield [(r, k)] + tail

    best = 0
    for entity_pairs in pairings(list(response.entities), list(key.entities)):
        ref_map = {r.object_id: ("ok", k.object_id) for r, k in entity_pairs}
        entity_cor = sum(
            count_common(entity_fills(r), entity_fills(k)) for r, k in entity_pairs
        )
        key_ref_map = {k.object_id: ("ok", k.object_id) for k in key.entities}
        for tieup_pairs in pairings(list(response.tieups), list(key.tieups)):
            tieup_cor = sum(
                count_common(tieup_fills(r, ref_map), tieup_fills(k, key_ref_map))
                for r, k in tieup_pairs
            )
            best = max(best, entity_cor + tieup_cor)
    return best


def align_by_sorting(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """Greedy pairing by descending shared-correct count, ids break ties.

    The scorer's former alignment: every response x key pair is counted
    and sorted.  Pair counts come from the former scorer's ``_pair_cor_count``
    below.
    """
    candidates = []
    for ki, key_obj in enumerate(key_objs):
        for ri, resp_obj in enumerate(resp_objs):
            cor = _pair_cor_count(resp_slots[ri], key_slots[ki])
            candidates.append((-cor, key_obj.object_id, resp_obj.object_id, ki, ri))
    candidates.sort()
    used_keys: set[int] = set()
    used_resps: set[int] = set()
    pairs = []
    for _neg_cor, _kid, _rid, ki, ri in candidates:
        if ki in used_keys or ri in used_resps:
            continue
        used_keys.add(ki)
        used_resps.add(ri)
        pairs.append((ri, ki))
    return pairs


def designator_by_scan(entries: dict[str, str], surface: str) -> str | None:
    """The designator lexicon's former lookup: ``endswith`` against every
    entry, the longest matching designator deciding."""
    best = None
    best_len = 0
    for designator, etype in entries.items():
        if surface.endswith(designator) and len(designator) > best_len:
            best, best_len = etype, len(designator)
    return best


# Name recognition and grouping as they were before each output token got
# its final indices when appended: both build every token with stale
# indices, then ``_reindex`` builds each again.  The token helpers they call
# are the package's own.


def _reindex(doc_id: str, sentences: list[list[Token]]) -> Document:
    out = []
    for s, sent in enumerate(sentences):
        out.append(
            tuple(Token(tok.surface, tok.pos, s, t) for t, tok in enumerate(sent))
        )
    return Document(doc_id, tuple(out))


def recognize_names_two_pass(doc: Document, lex) -> Document:
    if not lex.entries:
        return doc
    sentences: list[list[Token]] = []
    for sent in doc.sentences:
        toks = list(sent)
        out: list[Token] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            etype = lex.match(tok.surface)
            anchored = etype is not None and (
                tok.pos in _ANCHOR_ELIGIBLE or tok.surface in lex.entries
            )
            if not anchored:
                out.append(tok)
                i += 1
                continue
            # Extend backward over tokens already emitted this sentence.
            start = len(out)
            while start > 0 and _backward_ok(out[start - 1]):
                start -= 1
            # A run may not start on the connector itself.
            while start < len(out) and out[start].surface == CONNECTOR:
                start += 1
            absorbed = out[start:]
            del out[start:]
            j = i + 1
            while j < len(toks) and _forward_ok(toks[j]):
                j += 1
            surface = "".join(t.surface for t in absorbed)
            surface += "".join(t.surface for t in toks[i:j])
            # Forward extension may leave a different designator at the end;
            # the final surface decides the type so a second pass agrees.
            final_type = lex.match(surface) or etype
            out.append(Token(surface, final_type, tok.sent_index, tok.tok_index))
            i = j
        sentences.append(out)
    return _reindex(doc.doc_id, sentences)


def group_segments_two_pass(doc: Document) -> Document:
    sentences: list[list[Token]] = []
    for sent in doc.sentences:
        toks = list(sent)
        out: list[Token] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            if tok.pos not in ENTITY_TAGS:
                out.append(tok)
                i += 1
                continue
            surface = tok.surface
            j = i + 1
            while j < len(toks):
                if toks[j].pos == tok.pos:
                    surface += toks[j].surface
                    j += 1
                elif (
                    toks[j].surface == CONNECTOR
                    and j + 1 < len(toks)
                    and toks[j + 1].pos == tok.pos
                ):
                    surface += toks[j].surface + toks[j + 1].surface
                    j += 2
                else:
                    break
            out.append(Token(surface, tok.pos, tok.sent_index, tok.tok_index))
            i = j
        sentences.append(out)
    return _reindex(doc.doc_id, sentences)


def fills_by_fields(obj) -> list[tuple[str, str]]:
    """The scorer's former ``_fills``: (slot, value) per fill, built field by
    field; references in ``ENTITY:n`` form."""
    if isinstance(obj, EntityObject):
        fills = []
        if obj.name:
            fills.append(("NAME", obj.name))
        fills.extend(("ALIASES", a) for a in obj.aliases)
        if obj.entity_type:
            fills.append(("TYPE", obj.entity_type))
        return fills
    fills = [("ENTITIES", f"ENTITY:{r}") for r in obj.entity_refs]
    fills.extend(("JV-COMPANY", v) for v in obj.jv_company)
    fills.extend(("ACTIVITY", v) for v in obj.activities)
    if obj.status:
        fills.append(("STATUS", obj.status))
    if obj.warning:
        fills.append(("WARNING", obj.warning))
    return fills


def slot_values_by_fills(obj, entity_map):
    """The scorer's former slot table: the object's fills, each reference
    parsed back out of its ``ENTITY:n`` form to be mapped."""
    out = {}
    for slot, value in fills_by_fields(obj):
        if slot == "ENTITIES" and entity_map is not None:
            ref = int(value.split(":")[1])
            mapped = entity_map.get(ref)
            value = f"ENTITY:{mapped}" if mapped is not None else f"unaligned:{ref}"
        out.setdefault(slot, []).append(value)
    return out


def entry_at_by_scan(reg, position):
    """The registry's former lookup: the first non-alias entry at ``position``."""
    for e in reg.entries:
        if e.position == position and e.alias_of is None:
            return e
    return None


def is_english_word_by_loop(s: str) -> bool:
    """The registry's former test for a string of ASCII letters only."""
    return bool(s) and all("A" <= c <= "Z" or "a" <= c <= "z" for c in s)


def english_words_by_loop(s: str) -> list[str]:
    """The registry's former split: the runs of two or more ASCII letters,
    by a loop over the characters."""
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


def companies_in_sentence_by_scan(reg, sent_index: int) -> list:
    """Non-alias company references of one sentence, by a scan of every entry."""
    return [
        e
        for e in reg.entries
        if e.alias_of is None
        and e.position[0] == sent_index
        and reg.is_company_reference(e)
    ]


def pattern_subjects_by_two_walks(result) -> list[tuple[frozenset[int], frozenset[int]]]:
    """(partner ids, subject ids) of each winner of an extraction result, by
    the former rule of two walks over its ``@CNAME`` spans.

    The first walk collects the companies named in the spans.  After pronoun
    resolution the second adds the referents of each pronoun there that is
    not itself a company mention; an empty set takes the sentence's topics.
    """
    reg = result.registry

    def company_at(position):
        entry = entry_at_by_scan(reg, position)
        return entry if entry is not None and reg.is_company_reference(entry) else None

    referents_at = {p.position: p.referent_ids for p in result.pronouns}
    out = []
    for m in result.winners:
        s = m.sent_index
        spans = [m.spans[i] for i, _ in m.rule.variables if m.rule.is_cname[i]]
        partners = set()
        for lo, hi in spans:
            for t in range(lo, hi):
                entry = company_at((s, t))
                if entry is not None:
                    partners.add(entry.entity_id)
        subjects = set(partners)
        for lo, hi in spans:
            for t in range(lo, hi):
                if (s, t) in referents_at and company_at((s, t)) is None:
                    subjects |= referents_at[(s, t)]
        out.append((frozenset(partners), frozenset(subjects) or result.topics.for_sentence(s)))
    return out


def created_company_text_by_walk(sentence, span) -> str | None:
    """Trailing noun-like compound of a created-object span, if any, by the
    former backward walk over its noun-like tokens."""
    lo, hi = span
    end = hi
    start = end
    while start > lo and sentence[start - 1].pos in NOUN_LIKE:
        start -= 1
    if start == end:
        return None
    return "".join(t.surface for t in sentence[start:end])


def serialize_templates_by_fields(graph: TemplateGraph) -> str:
    """The former writer: every slot written out by hand, field by field."""
    entity_ids = {e.object_id for e in graph.entities}
    blocks: list[str] = []
    for t in graph.tieups:
        for ref in t.entity_refs:
            if ref not in entity_ids:
                raise DanglingReferenceError(f"<ENTITY-{ref}>")
        lines = [f"<TIE_UP-{t.object_id}> :="]
        if t.entity_refs:
            lines.append("  ENTITIES: " + " ".join(f"<ENTITY-{r}>" for r in t.entity_refs))
        if t.jv_company:
            lines.append("  JV-COMPANY: " + " ".join(t.jv_company))
        if t.activities:
            lines.append("  ACTIVITY: " + " ".join(t.activities))
        if t.status:
            lines.append(f"  STATUS: {t.status}")
        if t.warning:
            lines.append(f"  WARNING: {t.warning}")
        blocks.append("\n".join(lines))
    for e in graph.entities:
        lines = [f"<ENTITY-{e.object_id}> :="]
        if e.name:
            lines.append(f"  NAME: {e.name}")
        if e.aliases:
            lines.append("  ALIASES: " + " ".join(e.aliases))
        if e.entity_type:
            lines.append(f"  TYPE: {e.entity_type}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# The parser's former table of slots whose values split on whitespace.
MULTI_VALUED_SLOTS = {"ENTITIES", "ALIASES", "ACTIVITY", "JV-COMPANY"}


def slot_lists_by_lines(text: str) -> list[tuple[str, int, dict[str, list]]]:
    """(object type, number, slot -> values) per object of well-formed
    template text, as the parser collects them before building objects;
    ENTITIES values are entity numbers."""
    objects = []
    for line in text.splitlines():
        if line.startswith("<"):
            kind, number = line[1 : line.index(">")].rsplit("-", 1)
            objects.append((kind, int(number), {}))
        elif line:
            slot, value = line.strip().split(":", 1)
            values = value.split() if slot in MULTI_VALUED_SLOTS else [value.strip()]
            if slot == "ENTITIES":
                values = [int(v[len("<ENTITY-") : -1]) for v in values]
            objects[-1][2].setdefault(slot, []).extend(values)
    return objects


def graph_by_fields(objects, doc_id: str) -> TemplateGraph:
    """The parser's former object construction, every field named by hand."""
    tieups = []
    entities = []
    for kind, object_id, slots in objects:
        if kind == "TIE_UP":
            tieups.append(
                TieUpObject(
                    object_id=object_id,
                    entity_refs=tuple(slots.get("ENTITIES", [])),
                    jv_company=tuple(slots.get("JV-COMPANY", [])),
                    activities=tuple(slots.get("ACTIVITY", [])),
                    status=slots.get("STATUS", [None])[0],
                    warning=slots.get("WARNING", [None])[0],
                )
            )
        else:
            entities.append(
                EntityObject(
                    object_id=object_id,
                    name=slots.get("NAME", [""])[0],
                    aliases=tuple(slots.get("ALIASES", [])),
                    entity_type=slots.get("TYPE", [None])[0],
                )
            )
    return TemplateGraph(doc_id, tuple(tieups), tuple(entities))


# ---------------------------------------------------------------------------
# The template parser before it stripped each line once, verbatim.

_HEADER_RE = re.compile(r"^<([A-Z_]+)-(\d+)>\s*:=\s*$")
_REF_RE = re.compile(r"^<([A-Z_]+)-(\d+)>$")


def parse_templates(text: str, doc_id: str = "", path: str | None = None) -> TemplateGraph:
    """Parse block text back into a graph; inverse of serialization.

    Every ENTITIES reference must name an entity the text defines, once per
    tie-up.
    """
    # (type, number, object field -> value), in file order.
    objects: list[tuple[str, int, dict[str, object]]] = []
    current: tuple[str, int, dict[str, object]] | None = None
    seen_headers: set[tuple[str, int]] = set()
    references: list[tuple[int, int]] = []  # (entity number, line), in file order
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        header = _HEADER_RE.match(line.strip())
        if header:
            kind_id = (header.group(1), int(header.group(2)))
            if kind_id[0] not in _BY_TYPE:
                raise ParseError(f"unknown object type {kind_id[0]!r}", lineno, path)
            if kind_id in seen_headers:
                raise ParseError(
                    f"duplicate object <{kind_id[0]}-{kind_id[1]}>", lineno, path
                )
            seen_headers.add(kind_id)
            current = (*kind_id, {})
            objects.append(current)
            known = _BY_TYPE[kind_id[0]][1]
            continue
        if current is None:
            raise ParseError("slot line before any object header", lineno, path)
        slot, sep, value = line.strip().partition(":")
        if not sep or not slot.strip():
            raise ParseError(f"malformed slot line: {line.strip()!r}", lineno, path)
        slot = slot.strip()
        value = value.strip()
        if not value:
            raise ParseError(f"slot {slot} has no value", lineno, path)
        if slot not in known:
            raise ParseError(f"unknown {current[0]} slot {slot}", lineno, path)
        attr, multi = known[slot]
        if not multi and attr in current[2]:
            raise ParseError(f"slot {slot} given twice", lineno, path)
        values = value.split() if multi else [value]
        if slot == "ENTITIES":
            refs = list(current[2].get(attr, ()))
            for ref in values:
                m = _REF_RE.match(ref)
                if not m or m.group(1) != "ENTITY":
                    raise ParseError(f"bad entity reference {ref!r}", lineno, path)
                number = int(m.group(2))
                if number in refs:
                    raise ParseError(
                        f"<ENTITY-{number}> repeated in <TIE_UP-{current[1]}>", lineno, path
                    )
                refs.append(number)
                references.append((number, lineno))
            current[2][attr] = tuple(refs)
            continue
        current[2][attr] = current[2].get(attr, ()) + tuple(values) if multi else value

    defined = {object_id for kind, object_id, _ in objects if kind == "ENTITY"}
    for number, lineno in references:
        if number not in defined:
            raise ParseError(f"reference to undefined <ENTITY-{number}>", lineno, path)

    built: dict[type, list] = {cls: [] for cls in LAYOUT}
    for kind, object_id, fields in objects:
        cls = _BY_TYPE[kind][0]
        built[cls].append(cls(object_id, **fields))
    return TemplateGraph(doc_id, tuple(built[TieUpObject]), tuple(built[EntityObject]))


# ---------------------------------------------------------------------------
# The scorer before fill records became plain tuples and the alignment lost
# its fixed setup, verbatim: records, counts, metrics and report text.

METRIC_NAMES = ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "PR")


@dataclass
class ScoreCounts:
    cor: int = 0
    par: int = 0
    inc: int = 0
    mis: int = 0
    spu: int = 0

    def __add__(self, other: "ScoreCounts") -> "ScoreCounts":
        return ScoreCounts(
            self.cor + other.cor,
            self.par + other.par,
            self.inc + other.inc,
            self.mis + other.mis,
            self.spu + other.spu,
        )

    @property
    def possible(self) -> int:
        return self.cor + self.par + self.inc + self.mis

    @property
    def actual(self) -> int:
        return self.cor + self.par + self.inc + self.spu


@dataclass(frozen=True)
class Metrics:
    err: Fraction
    und: Fraction
    ovg: Fraction
    sub: Fraction
    rec: Fraction
    pre: Fraction
    pr: Fraction
    undefined: frozenset[str] = frozenset()  # metrics whose ratio was 0/0

    def as_percentages(self) -> dict[str, float]:
        return {
            name: round_percent(value)
            for name, value in zip(
                METRIC_NAMES,
                (self.err, self.und, self.ovg, self.sub, self.rec, self.pre, self.pr),
            )
        }


def round_percent(value: Fraction) -> float:
    """Percentage rounded half-up to one decimal (0.6375 -> 63.8)."""
    tenths, rest = divmod(1000 * value.numerator, value.denominator)
    if 2 * rest >= value.denominator:
        tenths += 1
    return tenths / 10


def compute_metrics(counts: ScoreCounts) -> Metrics:
    """The error-based and recall/precision-based measures; 0/0 is 0, flagged."""
    undefined: set[str] = set()

    def ratio(name: str, num: int, den: int) -> Fraction:
        # Numerators carrying a PAR/2 term arrive pre-doubled with a doubled
        # denominator, keeping everything in one exact Fraction.
        if den == 0:
            undefined.add(name)
            return Fraction(0)
        return Fraction(num, den)

    c = counts
    total = c.cor + c.par + c.inc + c.mis + c.spu
    err = ratio("ERR", 2 * c.inc + c.par + 2 * c.mis + 2 * c.spu, 2 * total)
    und = ratio("UND", c.mis, c.possible)
    ovg = ratio("OVG", c.spu, c.actual)
    sub = ratio("SUB", 2 * c.inc + c.par, 2 * (c.cor + c.par + c.inc))
    rec = ratio("REC", 2 * c.cor + c.par, 2 * c.possible)
    pre = ratio("PRE", 2 * c.cor + c.par, 2 * c.actual)
    if rec or pre:
        # f_measure(rec, pre) reduced: both ratios share the numerator
        # 2·COR + PAR, and COR + PAR > 0 here, so possible, actual > 0.
        pr = Fraction(2 * c.cor + c.par, c.possible + c.actual)
    else:
        pr = Fraction(0)
        undefined.add("PR")
    return Metrics(err, und, ovg, sub, rec, pre, pr, frozenset(undefined))


def f_measure(rec: Fraction, pre: Fraction) -> Fraction:
    """2·rec·pre / (rec + pre), built as one Fraction from integers."""
    a, b = rec.numerator, rec.denominator
    c, d = pre.numerator, pre.denominator
    return Fraction(2 * a * c, a * d + c * b)


# Slots with a fixed vocabulary; every other slot is open.
_CLOSED_SLOTS = ("STATUS", "TYPE", "WARNING")


def _fills(obj: EntityObject | TieUpObject) -> list[tuple[str, str]]:
    """Flatten an object into (slot, value) fills; refs use ENTITY:n form."""
    return [(slot, v) for slot, values in _slot_values(obj, None).items() for v in values]


def _normalize(value: str) -> str:
    return " ".join(value.split())


def _is_partial(a: str, b: str) -> bool:
    a, b = _normalize(a), _normalize(b)
    return a != b and (a in b or b in a)


def _slot_values(obj, entity_map: dict[int, int] | None) -> dict[str, list[str]]:
    """slot -> list of comparable values, read off the object's fields; with
    ``entity_map``, response refs are mapped through the entity alignment."""
    out = {}
    for slot, (attr, multi) in LAYOUT[type(obj)][1].items():
        value = getattr(obj, attr)
        if slot == "ENTITIES" and entity_map is not None:
            value = [f"ENTITY:{entity_map[r]}" if r in entity_map else f"unaligned:{r}"
                     for r in value]
        elif slot == "ENTITIES":
            value = [f"ENTITY:{r}" for r in value]
        if value:
            out[slot] = list(value) if multi else [value]
    return out


@dataclass(frozen=True)
class FillScore:
    """One scored fill: where it sat, what was compared, how it landed."""

    kind: str  # ENTITY | TIE_UP
    label: str  # e.g. "TIE_UP-1~TIE_UP-1", "ENTITY-2" for unaligned objects
    slot: str
    key_value: str | None
    resp_value: str | None
    category: str  # COR | PAR | INC | MIS | SPU


def _score_pair(kind, label, resp_slots, key_slots) -> list[FillScore]:
    # Slot tables are shared by every pair an object joins, so the value
    # lists are copied before they are consumed here and in _pair_cor_count.
    records = []
    for slot in sorted(set(resp_slots) | set(key_slots)):
        resp_vals = list(resp_slots.get(slot, []))
        key_vals = list(key_slots.get(slot, []))
        # Exact matches first.
        for kv in list(key_vals):
            if kv in resp_vals:
                records.append(FillScore(kind, label, slot, kv, kv, "COR"))
                key_vals.remove(kv)
                resp_vals.remove(kv)
        # Substring partials; reference slots never match partially.
        if slot != "ENTITIES":
            for kv in list(key_vals):
                partial = next((rv for rv in resp_vals if _is_partial(kv, rv)), None)
                if partial is not None:
                    records.append(FillScore(kind, label, slot, kv, partial, "PAR"))
                    key_vals.remove(kv)
                    resp_vals.remove(partial)
        # Remaining cross pairs are incorrect; leftovers missing/spurious.
        while key_vals and resp_vals:
            records.append(
                FillScore(kind, label, slot, key_vals.pop(0), resp_vals.pop(0), "INC")
            )
        records.extend(FillScore(kind, label, slot, kv, None, "MIS") for kv in key_vals)
        records.extend(FillScore(kind, label, slot, None, rv, "SPU") for rv in resp_vals)
    return records


def _pair_cor_count(resp_slots, key_slots) -> int:
    cor = 0
    for slot, key_vals in key_slots.items():
        resp_vals = list(resp_slots.get(slot, []))
        for kv in key_vals:
            if kv in resp_vals:
                cor += 1
                resp_vals.remove(kv)
    return cor


def _align_type(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """Greedy pairing by descending shared-correct count, ids break ties.

    The result is that of sorting every (key, response) pair by (-COR, key
    id, response id) and taking each pair whose two objects are still free,
    provided object ids are unique within each side (``parse_templates``
    rejects duplicates and ``generate_templates`` numbers objects 1..n).
    Without visiting every pair: COR splits into a closed part from
    ``_CLOSED_SLOTS``, fixed per pair of signatures (closed-value tuples),
    and an open part, nonzero only for linked pairs, which share an open
    (slot, value).  One COR level at a time, from the highest, each free key
    in id order takes its lowest-id free candidate: a linked response at
    that level, or the first free response of each signature group whose
    closed part equals the level.  That response is never linked to the
    key: a linked pair's COR exceeds its closed part, so at that higher
    level the key took a response or the response was taken.
    """
    key_index: dict[tuple[str, str], list[int]] = {}
    for ki, slots in enumerate(key_slots):
        for slot, values in slots.items():
            if slot not in _CLOSED_SLOTS:
                for value in values:
                    key_index.setdefault((slot, value), []).append(ki)
    linked: list[dict[int, int]] = [{} for _ in key_objs]  # ki -> {ri: COR}
    for ri, slots in enumerate(resp_slots):
        keys = {
            ki
            for slot, values in slots.items()
            if slot not in _CLOSED_SLOTS
            for value in values
            for ki in key_index.get((slot, value), ())
        }
        for ki in keys:
            linked[ki][ri] = _pair_cor_count(slots, key_slots[ki])

    resp_ids = [obj.object_id for obj in resp_objs]
    resp_sigs = [_signature(slots) for slots in resp_slots]
    groups: dict[tuple, list[int]] = {}  # signature -> free responses, id order
    for ri in sorted(range(len(resp_objs)), key=resp_ids.__getitem__):
        groups.setdefault(resp_sigs[ri], []).append(ri)
    key_sigs = [_signature(slots) for slots in key_slots]
    # Key signature -> (closed COR, group) for every response group.
    closed = {
        ks: [
            (_pair_cor_count(dict(rs), dict(ks)), members)
            for rs, members in groups.items()
        ]
        for ks in set(key_sigs)
    }
    levels = {cor for offers in closed.values() for cor, _ in offers}
    for links in linked:
        levels.update(links.values())

    free_keys = sorted(range(len(key_objs)), key=lambda ki: key_objs[ki].object_id)
    taken: set[int] = set()
    pairs = []
    for level in sorted(levels, reverse=True):
        if not free_keys:
            break
        still_free = []
        for ki in free_keys:
            links = linked[ki]
            candidates = [
                (resp_ids[ri], ri)
                for ri, cor in links.items()
                if cor == level and ri not in taken
            ]
            for cor, members in closed[key_sigs[ki]]:
                if cor == level and members:
                    candidates.append((resp_ids[members[0]], members[0]))
            if not candidates:
                still_free.append(ki)
                continue
            _rid, ri = min(candidates)
            taken.add(ri)
            groups[resp_sigs[ri]].remove(ri)
            pairs.append((ri, ki))
        free_keys = still_free
    return pairs


def _signature(slots) -> tuple:
    """An object's closed-slot values, the only ones its closed COR reads."""
    return tuple((slot, tuple(slots[slot])) for slot in _CLOSED_SLOTS if slot in slots)


def score_fills(response: TemplateGraph, key: TemplateGraph) -> list[FillScore]:
    """Align the two graphs and score every fill of both sides."""
    records: list[FillScore] = []
    entity_map: dict[int, int] = {}

    # Entities align first so tie-up reference slots see their pairing.
    for kind, resp_objs, key_objs in (
        ("ENTITY", response.entities, key.entities),
        ("TIE_UP", response.tieups, key.tieups),
    ):
        # Entities have no ENTITIES slot, so the still-empty map is inert on
        # the first pass; tie-up tables see the finished entity alignment.
        resp_slots = [_slot_values(o, entity_map) for o in resp_objs]
        key_slots = [_slot_values(o, None) for o in key_objs]

        pairs = _align_type(resp_objs, key_objs, resp_slots, key_slots)
        aligned_resp = {ri for ri, _ in pairs}
        aligned_key = {ki for _, ki in pairs}

        for ri, ki in sorted(pairs, key=lambda p: p[1]):
            resp_obj, key_obj = resp_objs[ri], key_objs[ki]
            if kind == "ENTITY":
                entity_map[resp_obj.object_id] = key_obj.object_id
            label = f"{kind}-{resp_obj.object_id}~{kind}-{key_obj.object_id}"
            records.extend(
                _score_pair(kind, label, resp_slots[ri], key_slots[ki])
            )
        for ki, key_obj in enumerate(key_objs):
            if ki not in aligned_key:
                label = f"{kind}-{key_obj.object_id}"
                records.extend(
                    FillScore(kind, label, slot, value, None, "MIS")
                    for slot, value in _fills(key_obj)
                )
        for ri, resp_obj in enumerate(resp_objs):
            if ri not in aligned_resp:
                label = f"{kind}-{resp_obj.object_id}"
                records.extend(
                    FillScore(kind, label, slot, None, value, "SPU")
                    for slot, value in _fills(resp_obj)
                )
    return records


def tally(records: list[FillScore]) -> ScoreCounts:
    counts = ScoreCounts()
    for r in records:
        setattr(counts, r.category.lower(), getattr(counts, r.category.lower()) + 1)
    return counts


def align_and_count(response: TemplateGraph, key: TemplateGraph) -> ScoreCounts:
    """Tally the five scoring categories for one response/key pair."""
    return tally(score_fills(response, key))


@dataclass
class DocumentScore:
    doc_id: str
    fills: list[FillScore]
    counts: ScoreCounts
    metrics: Metrics


@dataclass
class ScoreReport:
    documents: list[DocumentScore] = field(default_factory=list)

    @property
    def total_counts(self) -> ScoreCounts:
        total = ScoreCounts()
        for doc in self.documents:
            total += doc.counts
        return total

    @property
    def total_metrics(self) -> Metrics:
        return compute_metrics(self.total_counts)

    def format_listing(self) -> str:
        """Aligned-slot listing: one line per scored fill."""
        lines = []
        for doc in self.documents:
            lines.append(f"-- {doc.doc_id}")
            for f in doc.fills:
                key_side = f.key_value if f.key_value is not None else "-"
                resp_side = f.resp_value if f.resp_value is not None else "-"
                lines.append(
                    f"  {f.category:<3} {f.label} {f.slot}: {key_side} | {resp_side}"
                )
        return "\n".join(lines)

    def format_table(self) -> str:
        lines = [_TABLE_HEADER]
        for doc in self.documents:
            lines.append(_format_row(doc.doc_id, doc.metrics))
        lines.append(_format_row("TOTAL", self.total_metrics))
        return "\n".join(lines)

    def format(self) -> str:
        listing = self.format_listing()
        return (listing + "\n\n" if listing else "") + self.format_table()


_TABLE_HEADER = f"{'DOC':<16}" + "".join(
    f"{name:>8}" for name in ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "P&R")
)


def _format_row(label: str, metrics: Metrics) -> str:
    pct = metrics.as_percentages()
    return f"{label:<16}" + "".join(f"{pct[name]:>8.1f}" for name in METRIC_NAMES)


def score_documents(
    pairs: list[tuple[str, TemplateGraph, TemplateGraph]]
) -> ScoreReport:
    """Score (doc_id, response, key) pairs; totals pool the raw counts."""
    report = ScoreReport()
    for doc_id, response, key in pairs:
        fills = score_fills(response, key)
        counts = tally(fills)
        report.documents.append(
            DocumentScore(doc_id, fills, counts, compute_metrics(counts))
        )
    return report


# Winner selection as it was before it ranked each run of one rule's matches
# on its own, kept verbatim.


def _selection_key(m: PatternMatch):
    # Runs once per match, so it reads the stored fields, not the properties.
    spans, rule = m.spans, m.rule
    start = spans[0][0]
    return (-m.cname_filled, spans[-1][1] - start, -rule.elements_matched, start, rule.name, spans)


def select_best_by_key(matches: list[PatternMatch]) -> list[PatternMatch]:
    """One winner per concept group.

    Ranking, in order: most company-name variables containing a company
    token; fewest consumed tokens (shortest string match); most matched
    variables and literals.  Remaining ties fall to earliest start position,
    then rule name, then span layout, so the result is independent of input
    order.
    """
    buckets: dict[str, list[PatternMatch]] = {}
    for m in matches:
        buckets.setdefault(m.rule.group, []).append(m)
    winners = [min(bucket, key=_selection_key) for bucket in buckets.values()]
    winners.sort(key=lambda m: (m.start, m.rule_name))
    return winners
