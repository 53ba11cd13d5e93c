"""Token files, designator-based proper-name recognition, and unit grouping.

Input text arrives pre-segmented: one token per line as ``surface<TAB>pos``,
blank lines between sentences, ``#DOC <id>`` / ``#END`` around each document.
The POS vocabulary is open; the tags below have reserved meaning, everything
else is carried through untouched.  The reader, recognition and grouping
each build a token once, at its final (sentence, token) index, with the
tuple constructor after their own checks; recognition and grouping reuse a
token already there, and pass a token they cannot act on straight through.
"""

from typing import NamedTuple

from .errors import ParseError, content_lines

# Reserved POS tags.
POS_NOUN = "noun"
POS_VERBAL_NOMINAL = "verbal-nominal"
POS_VERB = "verb"
POS_PARTICLE = "particle"
POS_PUNCT = "punct"
POS_COMPANY = "company"
POS_PERSON = "person"
POS_PLACE = "place"
POS_UNKNOWN = "unknown"
POS_OTHER = "other"

ENTITY_TAGS = frozenset({POS_COMPANY, POS_PERSON, POS_PLACE})

# Tokens a name may absorb when extending backward from a designator.
_BACKWARD_ELIGIBLE = frozenset(
    {POS_NOUN, POS_UNKNOWN, POS_COMPANY, POS_PERSON, POS_PLACE}
)
# Forward extension is deliberately narrower: bare noun/unknown only.
_FORWARD_ELIGIBLE = frozenset({POS_NOUN, POS_UNKNOWN})
# Tags that may anchor a designator match; a token exactly equal to a
# designator anchors regardless of tag.  Ordinary nouns never anchor, so
# common words that merely end in a designator char (会社, 同社, ...) are
# left alone.
_ANCHOR_ELIGIBLE = frozenset({POS_UNKNOWN, POS_COMPANY, POS_PERSON, POS_PLACE})

CONNECTOR = "・"


class _TokenFields(NamedTuple):
    surface: str
    pos: str
    sent_index: int = 0
    tok_index: int = 0


class Token(_TokenFields):
    __slots__ = ()

    def __new__(cls, surface: str, pos: str, sent_index: int = 0, tok_index: int = 0):
        if not surface:
            raise ValueError("token surface must be non-empty")
        return tuple.__new__(cls, (surface, pos, sent_index, tok_index))


class Document(NamedTuple):
    doc_id: str
    sentences: tuple[tuple[Token, ...], ...]

    def tokens(self):
        for sent in self.sentences:
            yield from sent


class DesignatorLexicon:
    """Designator surfaces (社, 氏, ...) mapped to an entity type, with the
    distinct designator lengths, longest first, and every designator's last
    character."""

    __slots__ = ("entries", "lengths", "finals")

    def __init__(self, entries: dict[str, str] | None = None):
        entries = {} if entries is None else entries
        for etype in entries.values():
            if etype not in ENTITY_TAGS:
                raise ValueError(f"unknown designator entity type: {etype}")
        self.entries = entries
        self.lengths = tuple(sorted({len(d) for d in entries if d}, reverse=True))
        self.finals = frozenset(d[-1] for d in entries if d)

    def match(self, surface: str) -> str | None:
        """Type of the longest designator that ``surface`` ends with (or equals)."""
        if surface[-1:] not in self.finals:
            return None
        for n in self.lengths:
            if n <= len(surface):
                etype = self.entries.get(surface[-n:])
                if etype is not None:
                    return etype
        return None


def parse_token_file(text: str, path: str | None = None) -> list[Document]:
    """Parse token-file content into one Document per ``#DOC`` block."""
    docs: list[Document] = []
    doc_id: str | None = None
    doc_line = 0
    sentences: list[tuple[Token, ...]] = []
    sentence: list[Token] = []
    new = tuple.__new__

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if doc_id is None:
            if not stripped:
                continue
            parts = stripped.split(None, 1)
            if parts[0] != "#DOC":
                raise ParseError("expected '#DOC <id>' header", lineno, path)
            if len(parts) != 2:
                raise ParseError("missing document id after #DOC", lineno, path)
            doc_id = parts[1].strip()
            # The id names the document's output files, so it must be a
            # plain file name, one the OS accepts, inside the output directory.
            if doc_id in (".", "..") or any(c in doc_id for c in "/\\\0"):
                raise ParseError(
                    f"document id {doc_id!r} is not a plain file name", lineno, path
                )
            doc_line = lineno
            continue
        if stripped == "#END":
            if sentence:
                sentences.append(tuple(sentence))
                sentence = []
            if not sentences:
                raise ParseError(f"empty document {doc_id!r}", lineno, path)
            docs.append(Document(doc_id, tuple(sentences)))
            doc_id = None
            sentences = []
            continue
        if not stripped:
            if sentence:
                sentences.append(tuple(sentence))
                sentence = []
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            if stripped.split(None, 1)[0] == "#DOC":
                msg = f"document {doc_id!r} from line {doc_line} not terminated by #END"
                raise ParseError(msg, lineno, path)
            raise ParseError(
                f"expected 'surface<TAB>pos', got {len(fields)} field(s)", lineno, path
            )
        surface, pos = fields[0].strip(), fields[1].strip()
        if not surface or not pos:
            raise ParseError("empty surface or pos field", lineno, path)
        # Both fields are checked non-empty above, so ``Token``'s own check is
        # skipped.
        sentence.append(new(Token, (surface, pos, len(sentences), len(sentence))))

    if doc_id is not None:
        raise ParseError(f"document {doc_id!r} not terminated by #END", doc_line, path)
    return docs


def parse_document(text: str, path: str | None = None) -> Document:
    """Parse content holding exactly one document."""
    docs = parse_token_file(text, path)
    if len(docs) != 1:
        raise ParseError(f"expected exactly one document, found {len(docs)}", None, path)
    return docs[0]


def load_designator_lexicon(text: str, path: str | None = None) -> DesignatorLexicon:
    """Load ``surface<TAB>type`` lines; ``#`` starts a comment line."""
    entries: dict[str, str] = {}
    for lineno, stripped in content_lines(text):
        fields = stripped.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'surface<TAB>type'", lineno, path)
        surface, etype = fields[0].strip(), fields[1].strip()
        if etype not in ENTITY_TAGS:
            raise ParseError(f"unknown designator type {etype!r}", lineno, path)
        if surface in entries:
            raise ParseError(f"duplicate designator {surface!r}", lineno, path)
        entries[surface] = etype
    return DesignatorLexicon(entries)


def _is_numeral(tok: Token) -> bool:
    return all(c.isdigit() for c in tok.surface)


def _backward_ok(tok: Token) -> bool:
    if tok.surface == CONNECTOR:
        return True
    return tok.pos in _BACKWARD_ELIGIBLE and not _is_numeral(tok)


def _forward_ok(tok: Token) -> bool:
    return tok.pos in _FORWARD_ELIGIBLE and not _is_numeral(tok)


def recognize_names(doc: Document, lex: DesignatorLexicon) -> Document:
    """Merge designator-anchored name runs into single entity tokens.

    A token anchors a name when its surface ends with a designator and its
    tag is unknown/company/person/place, or when it exactly equals a
    designator.  The anchor absorbs the maximal run of name-like neighbors
    (backward: noun, unknown, entity tags, connector ``・``; forward: noun
    and unknown only).  Particles, verbs, other punctuation, numerals, and
    sentence boundaries stop the extension.
    """
    if not lex.entries:
        return doc
    finals, match, entries = lex.finals, lex.match, lex.entries
    new = tuple.__new__
    sentences: list[tuple[Token, ...]] = []
    for s, toks in enumerate(doc.sentences):
        out: list[Token] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            surface = tok.surface
            # A token whose last character ends no designator cannot anchor.
            etype = match(surface) if surface[-1:] in finals else None
            if etype is None or (tok.pos not in _ANCHOR_ELIGIBLE and surface not in entries):
                t = len(out)
                if tok.tok_index != t or tok.sent_index != s:
                    tok = new(Token, (surface, tok.pos, s, t))
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
            j = i + 1
            while j < len(toks) and _forward_ok(toks[j]):
                j += 1
            if start < len(out) or j > i + 1:
                surface = "".join([t.surface for t in out[start:]])
                surface += "".join([t.surface for t in toks[i:j]])
                del out[start:]
                # Forward extension may leave a different designator at the
                # end; the final surface decides the type so a second pass
                # agrees.
                etype = match(surface) or etype
                tok = new(Token, (surface, etype, s, start))
            elif etype != tok.pos or tok.tok_index != start or tok.sent_index != s:
                tok = new(Token, (surface, etype, s, start))
            out.append(tok)
            i = j
        sentences.append(tuple(out))
    return Document(doc.doc_id, tuple(sentences))


def group_segments(doc: Document) -> Document:
    """Join adjacent same-type entity tokens, bridging single ``・`` connectors."""
    new = tuple.__new__
    sentences: list[tuple[Token, ...]] = []
    for s, toks in enumerate(doc.sentences):
        out: list[Token] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            pos = tok.pos
            j = i + 1
            if pos in ENTITY_TAGS:
                surface = tok.surface
                while j < len(toks):
                    if toks[j].pos == pos:
                        surface += toks[j].surface
                        j += 1
                    elif (
                        toks[j].surface == CONNECTOR
                        and j + 1 < len(toks)
                        and toks[j + 1].pos == pos
                    ):
                        surface += toks[j].surface + toks[j + 1].surface
                        j += 2
                    else:
                        break
                if j > i + 1:
                    tok = new(Token, (surface, pos, s, len(out)))
            t = len(out)
            if tok.tok_index != t or tok.sent_index != s:
                tok = new(Token, (tok.surface, pos, s, t))
            out.append(tok)
            i = j
        sentences.append(tuple(out))
    return Document(doc.doc_id, tuple(sentences))
