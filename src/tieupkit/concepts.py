"""Keyword-driven concept recognition over noun-compound runs.

Keyword lists live in lexicon lines like ``(DISSOLVED 提携解消 整理 消滅)``.
Adjacent noun-like tokens are concatenated at run time so a compound key
word still matches after the segmenter split it apart; ``>`` / ``<`` anchors
pin a key word to a run boundary so it cannot match inside a larger
compound (>シリコン< matches the run シリコン but not 二酸化シリコン).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
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


@dataclass(frozen=True)
class Keyword:
    text: str
    anchor_begin: bool = False
    anchor_end: bool = False

    @classmethod
    def parse(cls, raw: str) -> "Keyword":
        begin = raw.startswith(">")
        if begin:
            raw = raw[1:]
        end = raw.endswith("<")
        if end:
            raw = raw[:-1]
        if not raw:
            raise ValueError("empty keyword after stripping anchors")
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


@dataclass(frozen=True)
class ConceptLexicon:
    entries: tuple[tuple[str, tuple[Keyword, ...]], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(names) != len(set(names)):
            raise ValueError("concept names must be unique")


@dataclass(frozen=True)
class ConceptHit:
    concept_name: str
    sent_index: int
    matched_run: str
    keyword: Keyword
    run_start: int


def load_concept_lexicon(text: str, path: str | None = None) -> ConceptLexicon:
    """Parse ``(NAME kw kw ...)`` lines; ``#`` starts a comment line."""
    entries: list[tuple[str, tuple[Keyword, ...]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
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
    i = 0
    toks = list(sentence)
    while i < len(toks):
        if toks[i].pos in NOUN_LIKE:
            j = i
            while j < len(toks) and toks[j].pos in NOUN_LIKE:
                j += 1
            runs.append(("".join(t.surface for t in toks[i:j]), i, j - i))
            i = j
        else:
            runs.append((toks[i].surface, i, 1))
            i += 1
    return runs


def find_concepts(
    sentence: list[Token] | tuple[Token, ...], lex: ConceptLexicon
) -> list[ConceptHit]:
    """All concept hits in one sentence, one per (concept, run)."""
    if not sentence:
        return []
    sent_index = sentence[0].sent_index
    hits: list[ConceptHit] = []
    for run, start, _count in compound_runs(sentence):
        for name, keywords in lex.entries:
            for kw in keywords:
                if kw.matches(run):
                    hits.append(ConceptHit(name, sent_index, run, kw, start))
                    break
    return hits
