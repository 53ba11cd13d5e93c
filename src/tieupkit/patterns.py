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
only when some token could satisfy that literal.  Each distinct literal,
prefilter included, is judged on a sentence once, in one pass over its tokens;
the sentence's literal table keys each row by the literal's
(alternatives, mode, POS) tuple, built with the element.
Matching is exhaustive: every distinct assignment of elements to contiguous
token spans is produced, and the selection step keeps one winner per concept
group by, in order, most filled company-name variables, fewest consumed
tokens, most matched variables and literals.

Enumeration follows only branches that can still complete: a per-sentence
table lists, for each element, the positions from which the rest of the rule
can still match.  The completions of the rule from each reachable (element,
position) state past the first are built once and shared by every prefix
that reaches the state; each match is built at its start from a span of the
first element and one such completion, so no root completion list is built.
A rule then costs its length times the sentence length, plus one entry per
completion of each reachable state, plus one match per assignment; a
sentence it cannot match costs linear time.
"""

from bisect import bisect_left
from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import ParseError, content_lines, read_number
from .tokens import (
    ENTITY_TAGS, POS_COMPANY, POS_NOUN, POS_PARTICLE, POS_PUNCT, POS_VERB, POS_VERBAL_NOMINAL, Token
)

SKIP_NAME = "@SKIP"
CNAME_PREFIX = "@CNAME"
# Matching takes one Python frame per element, so ``PatternRule`` refuses a
# longer rule (and the reader reports it at its line) rather than matching
# ending in a RecursionError; the shipped rules have at most 6.
MAX_RULE_ELEMENTS = 100

# Short POS tags accepted in pattern files for the reserved long tags.
_TAG_ALIASES = {
    "P": POS_PARTICLE,
    "V": POS_VERB,
    "VN": POS_VERBAL_NOMINAL,
    "N": POS_NOUN,
    "PUNCT": POS_PUNCT,
}


class ElementKind(Enum):
    VARIABLE = "variable"
    SKIP = "skip"
    LITERAL = "literal"


class PatternElement:
    """One rule element.  A literal also carries ``row_key``, its key in a
    sentence's literal table (everything its row depends on, as a plain
    tuple that hashes without Python code), and ``token_tags``, the token
    tags it accepts (``NP`` also takes grouped name units)."""

    __slots__ = ("kind", "name", "alternatives", "mode", "pos_tag", "row_key", "token_tags")

    def __init__(
        self,
        kind: ElementKind,
        name: str | None = None,
        alternatives: tuple[str, ...] = (),
        mode: str = "strict",
        pos_tag: str = "",
    ):
        self.kind = kind
        self.name = name
        self.alternatives = alternatives
        self.mode = mode
        self.pos_tag = pos_tag
        self.row_key = (alternatives, mode, pos_tag)
        tags = {_TAG_ALIASES.get(pos_tag, pos_tag)}
        if pos_tag == "NP":
            tags |= ENTITY_TAGS
        self.token_tags = frozenset(tags)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.name, self.row_key) == (other.kind, other.name, other.row_key)

    def matches_token(self, tok: Token) -> bool:
        if self.kind is not ElementKind.LITERAL:
            raise ValueError("only literals match single tokens")
        return self.row((tok,))[0]

    def row(self, sentence) -> list[bool]:
        """The literal's verdict on each token of ``sentence``, in one pass."""
        tags, alts = self.token_tags, self.alternatives
        if self.mode == "strict":
            return [t.pos in tags and t.surface in alts for t in sentence]
        return [t.pos in tags and any(a in t.surface for a in alts) for t in sentence]


class PatternRule:
    """A named element sequence with its index field, and what matching reads
    of it per element, derived once:

    - ``group``: the name with trailing decimal digits (``str.isdecimal``)
      stripped;
    - ``elements_matched``: variables and literals, the elements every match
      fills;
    - ``min_widths``: fewest tokens each element takes, ``@SKIP`` none, the
      rest one;
    - ``is_cname``: whether each element is a company-name variable;
    - ``variables``: (element position, binding key) per variable, repeated
      names getting '#n' suffixes from the second on.
    """

    __slots__ = (
        "name", "index_field", "elements",
        "group", "elements_matched", "min_widths", "is_cname", "variables",
    )

    def __init__(self, name: str, index_field: int, elements: tuple[PatternElement, ...]):
        if len(elements) > MAX_RULE_ELEMENTS:
            raise ValueError(f"rule has {len(elements)} elements, more than {MAX_RULE_ELEMENTS}")
        self.name = name
        self.index_field = index_field
        self.elements = elements
        end = len(name)
        while end and name[end - 1].isdecimal():
            end -= 1
        self.group = name[:end]
        self.elements_matched = sum(el.kind is not ElementKind.SKIP for el in elements)
        self.min_widths = tuple(int(el.kind is not ElementKind.SKIP) for el in elements)
        self.is_cname = tuple(
            el.kind is ElementKind.VARIABLE and el.name.startswith(CNAME_PREFIX)
            for el in elements
        )
        seen: dict[str, int] = {}
        layout = []
        for i, el in enumerate(elements):
            if el.kind is ElementKind.VARIABLE:
                seen[el.name] = n = seen.get(el.name, 0) + 1
                key = el.name if n == 1 else f"{el.name}#{n}"
                layout.append((i, key))
        self.variables = tuple(layout)

    @property
    def index_element(self) -> PatternElement:
        return self.elements[self.index_field - 1]


class PatternMatch(NamedTuple):
    """One assignment of a rule's elements to token spans.

    Only the rule, the sentence index, the spans and the company count are
    stored; everything else is derived from them on read.
    """

    rule: PatternRule
    sent_index: int
    spans: tuple[tuple[int, int], ...]
    cname_filled: int

    @property
    def rule_name(self) -> str:
        return self.rule.name

    @property
    def group(self) -> str:
        return self.rule.group

    @property
    def elements_matched(self) -> int:
        return self.rule.elements_matched

    @property
    def start(self) -> int:
        return self.spans[0][0]

    @property
    def end(self) -> int:
        return self.spans[-1][1]

    @property
    def consumed(self) -> int:
        return self.spans[-1][1] - self.spans[0][0]

    @property
    def bindings(self) -> dict[str, tuple[int, int]]:
        spans = self.spans
        return {key: spans[i] for i, key in self.rule.variables}

    def binding_text(self, sentence, name: str) -> str:
        lo, hi = self.bindings[name]
        return "".join(t.surface for t in sentence[lo:hi])

    def __hash__(self):
        return hash((self.rule.name, self.sent_index, self.spans))


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
    names: set[str] = set()
    for lineno, body in _split_rule_texts(text, path):
        words = body.split()
        if len(words) < 3:
            raise ParseError("rule needs a name, an index number, and elements", lineno, path)
        name = words[0]
        if name in names:
            raise ParseError(f"duplicate rule name {name!r}", lineno, path)
        names.add(name)
        index_field = read_number(words[1], "index field {}", lineno, path)

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
        try:
            rule = PatternRule(name, index_field, tuple(elements))
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from exc
        if not 1 <= index_field <= len(elements):
            raise ParseError(
                f"index field {index_field} out of range 1..{len(elements)}", lineno, path
            )
        if elements[index_field - 1].kind is not ElementKind.LITERAL:
            raise ParseError(
                f"index field {index_field} must point at a literal", lineno, path
            )
        rules.append(rule)
    return rules


def load_concept_map(text: str, path: str | None = None) -> dict[str, str]:
    """``group<TAB>CONCEPT_LABEL`` lines renaming rule groups to labels; a
    group mapped twice is an error."""
    mapping: dict[str, str] = {}
    for lineno, stripped in content_lines(text):
        fields = stripped.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'group<TAB>CONCEPT_LABEL'", lineno, path)
        group = fields[0].strip()
        if group in mapping:
            raise ParseError(f"duplicate concept-map group {group!r}", lineno, path)
        mapping[group] = fields[1].strip()
    return mapping


def _live_positions(rule: PatternRule, rows, n: int) -> list:
    """``live[i]``: the ascending positions from which ``elements[i:]`` can
    still complete in an ``n``-token sentence; ``live[-1]`` is every position.

    ``rows[i]`` is the literal table row of element ``i`` (one verdict per
    token), or None for a variable or ``@SKIP``.  A literal is live where its
    row holds and the next element is live one token on; a variable or
    ``@SKIP`` wherever the next element is live at least its minimum width on,
    which is every position up to the last such one less that width.
    """
    widths = rule.min_widths
    live: list = [range(n + 1)]
    for i in reversed(range(len(rows))):
        after, row = live[-1], rows[i]
        if row is not None:
            live.append([e - 1 for e in after if e and row[e - 1]])
        elif after:
            live.append(range(after[-1] - widths[i] + 1))
        else:
            live.append(after)
    live.reverse()
    return live


# The one completion of an empty suffix: no spans, no company fill.
_COMPLETE = [((), 0)]


def _rule_matches(rule: PatternRule, rows, companies, sent_index: int, out: list) -> None:
    """Append every assignment of ``rule`` to the sentence to ``out``, in
    order of start, then of each span's end.

    ``rows`` are the rule's literal table rows (None for a variable or
    ``@SKIP``) and ``companies[i]`` counts the company tokens before
    position ``i``.  Each (spans, filled company-name variables) completion
    of ``elements[i:]`` from position ``p``, ``i`` >= 1, is built once per
    ``(i, p)`` and shared by every prefix reaching it.  A match is built at
    its start from a span of element 0 and a completion of element 1; no
    root completion list is built.  Only live states (``_live_positions``)
    reachable from a live start are built, and none outlives the call.
    """
    live = _live_positions(rule, rows, len(companies) - 1)
    widths, is_cname = rule.min_widths, rule.is_cname
    last = len(rows)
    memo: dict[tuple[int, int], list] = {}

    def heads(i: int, p: int):
        # Element i's (span, company fill, next position) choices at p: a
        # literal takes one token, any other element every live end at least
        # its minimum width on, filling when it takes a company token.
        if rows[i] is not None:
            return ((((p, p + 1),), 0, p + 1),)
        ends = live[i + 1]
        below = companies[p] if is_cname[i] else None
        choices = []
        for end in ends[bisect_left(ends, p + widths[i]):]:
            choices.append((((p, end),), below is not None and companies[end] > below, end))
        return choices

    def completions(i: int, p: int) -> list:
        if i == last:
            return _COMPLETE
        done = memo.get((i, p))
        if done is None:
            done = memo[i, p] = []
            add = done.append
            for span, filled, end in heads(i, p):
                for spans, c in completions(i + 1, end):
                    add((span + spans, c + filled))
        return done

    # tuple.__new__ skips the Python frame of PatternMatch's generated __new__.
    add, new = out.append, tuple.__new__
    for start in live[0]:
        for span, filled, end in heads(0, start):
            for spans, c in completions(1, end):
                add(new(PatternMatch, (rule, sent_index, span + spans, c + filled)))
    # ``completions`` reaches itself through its closure; dropping the name
    # breaks that cycle, so the memo is freed on return, not by the cyclic
    # garbage collector.
    del completions


def _row(table: dict, el: PatternElement, sentence) -> list[bool]:
    """``el``'s row, from ``table`` or built there on first use."""
    key = el.row_key
    row = table.get(key)
    if row is None:
        row = table[key] = el.row(sentence)
    return row


def index_prefilter(sentence, rule: PatternRule, table: dict | None = None) -> bool:
    """Could any token satisfy the rule's index-field literal?  Its row is read
    from, or added to, ``table``, the sentence's literal table, when given."""
    return True in _row({} if table is None else table, rule.index_element, sentence)


def match_sentence(
    sentence: list[Token] | tuple[Token, ...],
    rules: list[PatternRule],
    use_prefilter: bool = True,
) -> list[PatternMatch]:
    """Every distinct assignment of every rule to the sentence.

    Each distinct literal is judged against each token once per sentence,
    the prefilter's index literal included: rules whose literals have equal
    alternatives, mode and POS tag share its table row.
    """
    sent_index = sentence[0].sent_index if sentence else 0
    companies = [0]
    for tok in sentence:
        companies.append(companies[-1] + (tok.pos == POS_COMPANY))
    table: dict[tuple, list[bool]] = {}
    matches: list[PatternMatch] = []
    for rule in rules:
        if use_prefilter and not index_prefilter(sentence, rule, table):
            continue
        rows = [
            _row(table, el, sentence) if el.kind is ElementKind.LITERAL else None
            for el in rule.elements
        ]
        _rule_matches(rule, rows, companies, sent_index, matches)
    return matches


def _selection_key(m: PatternMatch):
    # Runs only where two run winners meet, so it reads the stored fields,
    # not the properties.
    spans, rule = m.spans, m.rule
    start = spans[0][0]
    return (-m.cname_filled, spans[-1][1] - start, -rule.elements_matched, start, rule.name, spans)


def _run_key(m: PatternMatch):
    # _selection_key's order within one rule, whose spans open with the start.
    spans = m.spans
    return (-m.cname_filled, spans[-1][1] - spans[0][0], spans)


def select_best(matches: list[PatternMatch]) -> list[PatternMatch]:
    """One winner per concept group.

    Ranking, in order: most company-name variables containing a company
    token; fewest consumed tokens (shortest string match); most matched
    variables and literals.  Remaining ties fall to earliest start position,
    then rule name, then span layout, so the result is independent of input
    order.  Each run of one rule's matches is ranked on what varies within a
    rule; a run winner is ranked across rules only against its group's
    winner so far, which it replaces only when strictly better.
    """
    best: dict[str, PatternMatch] = {}
    for rule, run in groupby(matches, itemgetter(0)):  # runs of one rule
        m = min(run, key=_run_key)
        held = best.get(rule.group)
        if held is None or _selection_key(m) < _selection_key(held):
            best[rule.group] = m
    winners = list(best.values())
    if len(winners) > 1:
        winners.sort(key=lambda m: (m.start, m.rule_name))
    return winners
