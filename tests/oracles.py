"""Independent brute-force oracles the engine is checked against.

Everything here favors obviousness over speed and shares no code with the
implementations under test, apart from the per-pair count that
``align_by_sorting`` borrows from the scorer.
"""

from itertools import combinations

from tieupkit.patterns import ElementKind, PatternMatch, PatternRule
from tieupkit.concepts import ConceptHit, compound_runs
from tieupkit.scoring import _pair_cor_count
from tieupkit.errors import DanglingReferenceError
from tieupkit.templates import EntityObject, TemplateGraph, TieUpObject
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
    and sorted.  Pair counts come from the scorer's ``_pair_cor_count``.
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


def companies_in_sentence_by_scan(reg, sent_index: int) -> list:
    """Non-alias company references of one sentence, by a scan of every entry."""
    return [
        e
        for e in reg.entries
        if e.alias_of is None
        and e.position[0] == sent_index
        and reg.is_company_reference(e)
    ]


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
