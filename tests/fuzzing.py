"""Random inputs for the fuzz tests: edits of a valid input file for the
parsers, and documents shaped like the shipped rules for the pipeline."""

from tieupkit.tokens import Document, Token

# Spans a shipped rule's @CNAME variable may take: companies, pronouns tagged
# noun or company, and names that are not companies.
SPAN_TOKENS = [("X社", "company"), ("Y社", "company"), ("Z社", "company"),
               ("両社", "noun"), ("同社", "noun"), ("自社", "noun"), ("同社", "company"),
               ("製品", "noun"), ("ベンツ", "unknown"), ("鈴木", "person")]


def mutate(text: str, rng, chars: str, pieces: list[str]) -> str:
    """One to three edits: delete, insert or replace a character from
    ``chars``, insert a fragment from ``pieces``, or duplicate or swap lines."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        i = rng.randint(0, len(text))
        if op == 0 and text:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(chars) + text[i:]
        elif op == 2 and text:
            text = text[:i] + rng.choice(chars) + text[i + 1:]
        elif op == 3:
            text = text[:i] + rng.choice(pieces) + text[i:]
        else:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 4:
                lines.insert(a, lines[b])
            else:
                lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def rule_shaped_doc(rng, doc_id):
    """Sentences shaped like the shipped rules, so most of them match:
    span は|が span と|の [新型車 [を]] 提携|販売|開発|設立 する 。"""
    sentences = []
    for s in range(rng.randint(1, 4)):
        sentence = [rng.choice(SPAN_TOKENS) for _ in range(rng.randint(1, 2))]
        sentence.append((rng.choice("はが"), "particle"))
        sentence += [rng.choice(SPAN_TOKENS) for _ in range(rng.randint(1, 2))]
        sentence.append((rng.choice("との"), "particle"))
        sentence += [("新型車", "noun"), ("を", "particle")][: rng.randint(0, 2)]
        sentence.append((rng.choice(["提携", "販売", "開発", "設立"]), "verbal-nominal"))
        sentence += [("する", "verb"), ("。", "punct")]
        sentences.append(tuple(Token(w, p, s, t) for t, (w, p) in enumerate(sentence)))
    return Document(doc_id, tuple(sentences))
