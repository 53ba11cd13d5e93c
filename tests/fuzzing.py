"""Random edits of a valid input file, for the parser fuzz tests."""


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
