"""Keyword-driven concept recognition over noun-compound runs.

Keyword lists live in lexicon lines like ``(DISSOLVED 提携解消 整理 消滅)``.
Adjacent noun-like tokens are concatenated at run time so a compound key
word still matches after the segmenter split it apart; ``>`` / ``<`` anchors
pin a key word to a run boundary so it cannot match inside a larger
compound (>シリコン< matches the run シリコン but not 二酸化シリコン).

Under every anchor form a key word is a substring of the run it matches, so
a run holding no key word's first character is skipped without trying any;
the lexicon keeps those characters in one set built with it.
"""

from typing import NamedTuple

from .errors import ParseError, content_lines
from .tokens import (
    POS_COMPANY,
    POS_NOUN,
    POS_PERSON,
    POS_PLACE,
    POS_UNKNOWN,
    POS_VERBAL_NOMINAL,
    Token,
)

NOUN_LIKE = frozenset(
    {POS_NOUN, POS_VERBAL_NOMINAL, POS_UNKNOWN, POS_COMPANY, POS_PERSON, POS_PLACE}
)


class _KeywordFields(NamedTuple):
    text: str
    anchor_begin: bool = False
    anchor_end: bool = False


class Keyword(_KeywordFields):
    __slots__ = ()

    def __new__(cls, text: str, anchor_begin: bool = False, anchor_end: bool = False):
        if not text:
            raise ValueError("empty keyword after stripping anchors")
        return tuple.__new__(cls, (text, anchor_begin, anchor_end))

    @classmethod
    def parse(cls, raw: str) -> "Keyword":
        begin = raw.startswith(">")
        if begin:
            raw = raw[1:]
        end = raw.endswith("<")
        if end:
            raw = raw[:-1]
        return cls(raw, begin, end)

    def matches(self, run: str) -> bool:
        if self.anchor_begin and self.anchor_end:
            return run == self.text
        if self.anchor_begin:
            return run.startswith(self.text)
        if self.anchor_end:
            return run.endswith(self.text)
        return self.text in run

    def __str__(self) -> str:
        return (">" if self.anchor_begin else "") + self.text + ("<" if self.anchor_end else "")


class ConceptLexicon:
    """Concepts and their key words, with the first character of every key word."""

    __slots__ = ("entries", "initials")

    def __init__(self, entries: tuple[tuple[str, tuple[Keyword, ...]], ...]):
        names = [name for name, _ in entries]
        if len(names) != len(set(names)):
            raise ValueError("concept names must be unique")
        self.entries = entries
        self.initials = frozenset(kw.text[0] for _, keywords in entries for kw in keywords)


class ConceptHit(NamedTuple):
    concept_name: str
    sent_index: int
    matched_run: str
    keyword: Keyword
    run_start: int


def load_concept_lexicon(text: str, path: str | None = None) -> ConceptLexicon:
    """Parse ``(NAME kw kw ...)`` lines; ``#`` starts a comment line."""
    entries: list[tuple[str, tuple[Keyword, ...]]] = []
    seen: set[str] = set()
    for lineno, stripped in content_lines(text):
        if not stripped.startswith("(") or not stripped.endswith(")"):
            raise ParseError("unbalanced parentheses in concept entry", lineno, path)
        body = stripped[1:-1].strip()
        if "(" in body or ")" in body:
            raise ParseError("unbalanced parentheses in concept entry", lineno, path)
        parts = body.split()
        if len(parts) < 2:
            raise ParseError("concept entry needs a name and at least one keyword", lineno, path)
        name = parts[0]
        if name in seen:
            raise ParseError(f"duplicate concept name {name!r}", lineno, path)
        seen.add(name)
        try:
            keywords = tuple(Keyword.parse(raw) for raw in parts[1:])
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from exc
        entries.append((name, keywords))
    return ConceptLexicon(tuple(entries))


def compound_runs(sentence: list[Token] | tuple[Token, ...]) -> list[tuple[str, int, int]]:
    """Concatenate maximal noun-like runs; other tokens stay singletons.

    Returns ``(run string, start tok position, member count)`` triples.
    """
    runs: list[tuple[str, int, int]] = []
    text, start = "", 0  # the open noun-like run, if any
    for i, tok in enumerate(sentence):
        if tok.pos in NOUN_LIKE:
            if not text:
                start = i
            text += tok.surface
            continue
        if text:
            runs.append((text, start, i - start))
            text = ""
        runs.append((tok.surface, i, 1))
    if text:
        runs.append((text, start, len(sentence) - start))
    return runs


def find_concepts(
    sentence: list[Token] | tuple[Token, ...], lex: ConceptLexicon
) -> list[ConceptHit]:
    """All concept hits in one sentence, one per (concept, run)."""
    if not sentence:
        return []
    sent_index = sentence[0].sent_index
    hits: list[ConceptHit] = []
    initials = lex.initials
    new = tuple.__new__
    for run, start, _count in compound_runs(sentence):
        if initials.isdisjoint(run):
            continue
        for name, keywords in lex.entries:
            for kw in keywords:
                if kw.matches(run):
                    hits.append(new(ConceptHit, (name, sent_index, run, kw, start)))
                    break
    return hits
