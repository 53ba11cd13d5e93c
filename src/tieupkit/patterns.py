"""Template-pattern DSL: parsing, exhaustive matching, best-match selection.

A rule is a parenthesized list: name, index-field number, then elements.

    (JointVenture1 6
      @CNAME_PARTNER_SUBJ  は|が:strict:P  @CNAME_PARTNER_WITH  と:strict:P
      @SKIP  提携:loose:VN)

Elements:
  ``@SKIP``            consumes zero or more tokens.
  ``@NAME``            variable, consumes one or more tokens; names starting
                       with ``@CNAME`` are company-name variables.
  ``alt1|alt2:mode:POS``  literal; ``strict`` requires the full token surface
                       to equal an alternative, ``loose`` accepts a substring
                       hit.  Mode may be omitted (``alt::POS`` is strict).
                       Alternatives may contain spaces; the element ends at
                       the word carrying the ``:mode:POS`` tail.

The index field names one literal element; a rule is attempted on a sentence
only when some token could satisfy that literal.  Matching is exhaustive:
every distinct assignment of elements to contiguous token spans is produced,
and the selection step keeps one winner per concept group by, in order,
most filled company-name variables, fewest consumed tokens, most matched
variables and literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError
from .tokens import ENTITY_TAGS, POS_COMPANY, Token

SKIP_NAME = "@SKIP"
CNAME_PREFIX = "@CNAME"

# Short POS tags accepted in pattern files for the reserved long tags.
_TAG_ALIASES = {
    "P": "particle",
    "V": "verb",
    "VN": "verbal-nominal",
    "N": "noun",
    "PUNCT": "punct",
}


class ElementKind(Enum):
    VARIABLE = "variable"
    SKIP = "skip"
    LITERAL = "literal"


@dataclass(frozen=True)
class PatternElement:
    kind: ElementKind
    name: str | None = None
    alternatives: tuple[str, ...] = ()
    mode: str = "strict"
    pos_tag: str = ""

    def is_cname(self) -> bool:
        return self.kind is ElementKind.VARIABLE and (self.name or "").startswith(
            CNAME_PREFIX
        )

    def matches_token(self, tok: Token) -> bool:
        if self.kind is not ElementKind.LITERAL:
            raise ValueError("only literals match single tokens")
        if not _pos_ok(self.pos_tag, tok.pos):
            return False
        if self.mode == "strict":
            return tok.surface in self.alternatives
        return any(alt in tok.surface for alt in self.alternatives)


def _pos_ok(pattern_tag: str, token_pos: str) -> bool:
    # NP stands for a noun phrase slot; grouped name units qualify.
    if pattern_tag == "NP" and token_pos in ENTITY_TAGS:
        return True
    return _TAG_ALIASES.get(pattern_tag, pattern_tag) == token_pos


@dataclass(frozen=True)
class PatternRule:
    name: str
    index_field: int
    elements: tuple[PatternElement, ...]

    @property
    def group(self) -> str:
        """Rule name with trailing decimal digits stripped."""
        return re.sub(r"\d+$", "", self.name)

    @property
    def index_element(self) -> PatternElement:
        return self.elements[self.index_field - 1]


@dataclass(frozen=True)
class PatternMatch:
    rule_name: str
    group: str
    sent_index: int
    spans: tuple[tuple[int, int], ...]
    bindings: dict[str, tuple[int, int]]
    consumed: int
    cname_filled: int
    elements_matched: int

    @property
    def start(self) -> int:
        return self.spans[0][0]

    @property
    def end(self) -> int:
        return self.spans[-1][1]

    def binding_text(self, sentence, name: str) -> str:
        lo, hi = self.bindings[name]
        return "".join(t.surface for t in sentence[lo:hi])

    def __hash__(self):
        return hash((self.rule_name, self.sent_index, self.spans))


def _split_rule_texts(text: str, path: str | None) -> list[tuple[int, str]]:
    """Extract top-level parenthesized groups; '#' comments run to EOL."""
    kept_lines = []
    for line in text.splitlines():
        head, _, _ = line.partition("#")
        kept_lines.append(head)
    cleaned = "\n".join(kept_lines)

    groups: list[tuple[int, str]] = []
    depth = 0
    start = -1
    start_line = 0
    lineno = 1
    for idx, ch in enumerate(cleaned):
        if ch == "\n":
            lineno += 1
        elif ch == "(":
            if depth == 0:
                start = idx + 1
                start_line = lineno
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", lineno, path)
            if depth == 0:
                groups.append((start_line, cleaned[start:idx]))
        elif depth == 0 and not ch.isspace():
            raise ParseError(f"unexpected text outside rule: {ch!r}", lineno, path)
    if depth != 0:
        raise ParseError("unbalanced '('", start_line, path)
    return groups


def _parse_literal(words: list[str], lineno: int, path: str | None) -> PatternElement:
    joined = " ".join(words)
    body, _, pos_tag = joined.rpartition(":")
    alts_part, sep, mode = body.rpartition(":")
    if not sep:
        raise ParseError(f"literal {joined!r} needs ':mode:POS' tail", lineno, path)
    if mode == "":
        mode = "strict"
    if mode not in ("strict", "loose"):
        raise ParseError(f"unknown literal mode {mode!r}", lineno, path)
    if not pos_tag:
        raise ParseError(f"literal {joined!r} is missing its POS tag", lineno, path)
    alternatives = tuple(a.strip() for a in alts_part.split("|"))
    if not all(alternatives):
        raise ParseError(f"empty alternative in literal {joined!r}", lineno, path)
    return PatternElement(
        ElementKind.LITERAL, alternatives=alternatives, mode=mode, pos_tag=pos_tag
    )


def parse_pattern_file(text: str, path: str | None = None) -> list[PatternRule]:
    rules = []
    for lineno, body in _split_rule_texts(text, path):
        words = body.split()
        if len(words) < 3:
            raise ParseError("rule needs a name, an index number, and elements", lineno, path)
        name = words[0]
        try:
            index_field = int(words[1])
        except ValueError:
            raise ParseError(f"index field {words[1]!r} is not a number", lineno, path)

        elements: list[PatternElement] = []
        pending: list[str] = []
        for word in words[2:]:
            if word.startswith("@"):
                if pending:
                    raise ParseError(
                        f"literal {' '.join(pending)!r} needs ':mode:POS' tail", lineno, path
                    )
                if word == SKIP_NAME:
                    elements.append(PatternElement(ElementKind.SKIP, name=word))
                else:
                    elements.append(PatternElement(ElementKind.VARIABLE, name=word))
            else:
                pending.append(word)
                if ":" in word:
                    elements.append(_parse_literal(pending, lineno, path))
                    pending = []
        if pending:
            raise ParseError(
                f"literal {' '.join(pending)!r} needs ':mode:POS' tail", lineno, path
            )
        if not elements:
            raise ParseError("rule has no elements", lineno, path)
        if not 1 <= index_field <= len(elements):
            raise ParseError(
                f"index field {index_field} out of range 1..{len(elements)}", lineno, path
            )
        if elements[index_field - 1].kind is not ElementKind.LITERAL:
            raise ParseError(
                f"index field {index_field} must point at a literal", lineno, path
            )
        rules.append(PatternRule(name, index_field, tuple(elements)))
    return rules


def load_concept_map(text: str, path: str | None = None) -> dict[str, str]:
    """``group<TAB>CONCEPT_LABEL`` lines renaming rule groups to labels."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'group<TAB>CONCEPT_LABEL'", lineno, path)
        mapping[fields[0].strip()] = fields[1].strip()
    return mapping


def _variable_slots(rule: PatternRule) -> list[str | None]:
    """Binding key per element; repeated variable names get '#n' suffixes."""
    counts: dict[str, int] = {}
    for el in rule.elements:
        if el.kind is ElementKind.VARIABLE:
            counts[el.name] = counts.get(el.name, 0) + 1
    seen: dict[str, int] = {}
    slots: list[str | None] = []
    for el in rule.elements:
        if el.kind is not ElementKind.VARIABLE:
            slots.append(None)
            continue
        seen[el.name] = seen.get(el.name, 0) + 1
        if counts[el.name] > 1 and seen[el.name] > 1:
            slots.append(f"{el.name}#{seen[el.name]}")
        else:
            slots.append(el.name)
    return slots


def _enumerate_rule(sentence, rule: PatternRule) -> list[tuple[tuple[int, int], ...]]:
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
    return results


def _build_match(sentence, rule: PatternRule, group: str, slots, spans) -> PatternMatch:
    bindings: dict[str, tuple[int, int]] = {}
    cname = 0
    matched = 0
    for el, slot, span in zip(rule.elements, slots, spans):
        if el.kind is ElementKind.SKIP:
            continue
        matched += 1
        if el.kind is ElementKind.VARIABLE:
            bindings[slot] = span
            if el.is_cname() and any(
                t.pos == POS_COMPANY for t in sentence[span[0] : span[1]]
            ):
                cname += 1
    sent_index = sentence[0].sent_index if sentence else 0
    return PatternMatch(
        rule_name=rule.name,
        group=group,
        sent_index=sent_index,
        spans=tuple(spans),
        bindings=bindings,
        consumed=spans[-1][1] - spans[0][0],
        cname_filled=cname,
        elements_matched=matched,
    )


def index_prefilter(sentence, rule: PatternRule) -> bool:
    """Cheap test: could any token satisfy the rule's index-field literal?"""
    el = rule.index_element
    return any(el.matches_token(t) for t in sentence)


def match_sentence(
    sentence: list[Token] | tuple[Token, ...],
    rules: list[PatternRule],
    use_prefilter: bool = True,
) -> list[PatternMatch]:
    """Every distinct assignment of every rule to the sentence."""
    sentence = list(sentence)
    matches: list[PatternMatch] = []
    for rule in rules:
        if use_prefilter and not index_prefilter(sentence, rule):
            continue
        group, slots = rule.group, _variable_slots(rule)
        for spans in _enumerate_rule(sentence, rule):
            matches.append(_build_match(sentence, rule, group, slots, spans))
    return matches


def _selection_key(m: PatternMatch):
    return (-m.cname_filled, m.consumed, -m.elements_matched, m.start, m.rule_name, m.spans)


def select_best(matches: list[PatternMatch]) -> list[PatternMatch]:
    """One winner per concept group.

    Ranking, in order: most company-name variables containing a company
    token; fewest consumed tokens (shortest string match); most matched
    variables and literals.  Remaining ties fall to earliest start position,
    then rule name, then span layout, so the result is independent of input
    order.
    """
    buckets: dict[str, list[PatternMatch]] = {}
    for m in matches:
        buckets.setdefault(m.group, []).append(m)
    winners = [min(bucket, key=_selection_key) for bucket in buckets.values()]
    winners.sort(key=lambda m: (m.start, m.rule_name))
    return winners
