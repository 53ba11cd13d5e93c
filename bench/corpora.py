"""Seeded known-answer corpora for the benchmark.

Every document comes with the template text the extractor must print for it
and with a perturbed answer key plus the slot-fill counts the scorer must
report for that key.  Both are built here, by construction; nothing in this
module runs tieupkit.  The same workload name and seed always give the same
bytes.

Company names are drawn so that no later registry string is a subsequence of
an earlier one unless the plan makes them the same company (a repeat, an
abbreviation or an embedded ASCII word).  Under the paper's unification rule
that leaves exactly one correct answer, which :func:`check_mentions` verifies
with a plain subsequence test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

KANA = "アイウエオカキクケコサシスセソタチツテトナニヌネノハヒフヘホマミムメモヤユヨラリルレロワ"
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Workload sizes.  Document sizes are spread one per equal-width stratum and
# do not change with the seed (see _stratified).  Document counts are odd, and news has seven equal shares,
# so that the median of per-document latency falls on one document (or
# inside one fixture's share), never between two sizes.  Every workload
# takes under 3 seconds per pass and phase, so that a run times each
# document many times over (see run.py).
NEWS_DOCS = 350
LONG_DOCS = 5
LONG_TOKENS = (40, 130)
REGISTRY_DOCS = 3
REGISTRY_SENTENCES = (100, 200)

# Registry mention mix: share of subjects that re-mention an earlier company
# by abbreviation or by its ASCII word, and share of fresh names with one.
P_ABBREVIATION = 0.15
P_ASCII_MENTION = 0.10
P_ASCII_NAME = 0.20

_MAX_DRAWS = 1000


# --------------------------------------------------------------- answers


@dataclass(frozen=True)
class Entity:
    name: str
    aliases: tuple[str, ...] = ()
    type: str = "COMPANY"

    def fills(self) -> int:
        return 1 + len(self.aliases) + 1


@dataclass(frozen=True)
class TieUp:
    refs: tuple[int, ...]
    jv: tuple[str, ...] = ()
    activities: tuple[str, ...] = ()
    status: str = "EXISTING"

    def fills(self) -> int:
        return len(self.refs) + len(self.jv) + len(self.activities) + 1


@dataclass(frozen=True)
class Answer:
    tieups: tuple[TieUp, ...] = ()
    entities: tuple[Entity, ...] = ()

    def fills(self) -> int:
        return sum(t.fills() for t in self.tieups) + sum(e.fills() for e in self.entities)

    def text(self) -> str:
        """The block format of the package's template files."""
        blocks = []
        for n, t in enumerate(self.tieups, start=1):
            lines = [f"<TIE_UP-{n}> :=",
                     "  ENTITIES: " + " ".join(f"<ENTITY-{r}>" for r in t.refs)]
            if t.jv:
                lines.append("  JV-COMPANY: " + " ".join(t.jv))
            if t.activities:
                lines.append("  ACTIVITY: " + " ".join(t.activities))
            lines.append(f"  STATUS: {t.status}")
            blocks.append("\n".join(lines))
        for n, e in enumerate(self.entities, start=1):
            lines = [f"<ENTITY-{n}> :=", f"  NAME: {e.name}"]
            if e.aliases:
                lines.append("  ALIASES: " + " ".join(e.aliases))
            lines.append(f"  TYPE: {e.type}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n" if blocks else ""


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: str  # token-file text holding this one document
    answer: Answer
    key: Answer
    counts: tuple[int, int, int, int, int]  # expected COR, PAR, INC, MIS, SPU
    perturbation: str

    @property
    def expected(self) -> str:
        return self.answer.text()


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    documents: tuple[Document, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.documents:
            record = [d.doc_id, d.tokens, d.expected, d.key.text(), list(d.counts)]
            h.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        return h.hexdigest()


# ------------------------------------------------------------ name checks


def is_subsequence(short: str, long: str) -> bool:
    it = iter(long)
    return all(c in it for c in short)


def mention_conflict(mentions, string: str, company) -> str | None:
    """Why ``string`` of ``company`` may not follow ``mentions``, or None.

    It may not be a subsequence of an earlier mention of another company
    (or of a non-company, whose company is None), and a re-mention must be a
    subsequence of its company's first mention.
    """
    first = None
    for earlier, owner in mentions:
        if owner == company and company is not None:
            first = first or earlier
            continue
        if len(string) >= 2 and len(string) <= len(earlier) and is_subsequence(string, earlier):
            return f"{string!r} is a subsequence of {earlier!r}"
    if first is not None and not is_subsequence(string, first):
        return f"{string!r} is not a subsequence of {first!r}"
    return None


def check_mentions(mentions) -> None:
    """Raise ValueError unless registry strings unify exactly as planned.

    ``mentions`` lists (string, company) in registry order; company is a
    planning key, or None for names that are not companies.
    """
    for k, (string, company) in enumerate(mentions):
        problem = mention_conflict(mentions[:k], string, company)
        if problem:
            raise ValueError(problem)


# ----------------------------------------------------------- perturbation

PERTURBATIONS = ("none", "drop", "add", "superstring", "status")


def _multi_values(answer: Answer):
    """(object kind, object index, slot, value index) of every value of a
    multi-valued slot."""
    out = []
    for i, t in enumerate(answer.tieups):
        out += [("tieup", i, "refs", v) for v in range(len(t.refs))]
        out += [("tieup", i, "jv", v) for v in range(len(t.jv))]
        out += [("tieup", i, "activities", v) for v in range(len(t.activities))]
    for i, e in enumerate(answer.entities):
        out += [("entity", i, "aliases", v) for v in range(len(e.aliases))]
    return out


def _set(answer: Answer, kind: str, i: int, obj) -> Answer:
    if kind == "tieup":
        objs = list(answer.tieups)
        objs[i] = obj
        return replace(answer, tieups=tuple(objs))
    objs = list(answer.entities)
    objs[i] = obj
    return replace(answer, entities=tuple(objs))


def _get(answer: Answer, kind: str, i: int):
    return answer.tieups[i] if kind == "tieup" else answer.entities[i]


def _unrelated(value: str, others) -> bool:
    return all(value not in o and o not in value for o in others)


def perturb_key(rng: random.Random, answer: Answer, kind: str):
    """Key and expected (COR, PAR, INC, MIS, SPU) for one perturbation kind.

    One fill changes at most, so every other object still aligns with its
    answer at a higher correct count than any wrong pairing:
      drop        a key value the response has is removed   -> one SPU
      add         the key gains a value the response lacks  -> one MIS
      superstring a key value grows a suffix                -> one PAR
      status      the key STATUS flips                      -> one INC
    Falls back to "none" when the answer has nothing to perturb.
    """
    cor = answer.fills()
    if kind == "drop" and _multi_values(answer):
        obj_kind, i, slot, v = rng.choice(_multi_values(answer))
        obj = _get(answer, obj_kind, i)
        values = getattr(obj, slot)
        key = _set(answer, obj_kind, i, replace(obj, **{slot: values[:v] + values[v + 1:]}))
        return key, (cor - 1, 0, 0, 0, 1), kind
    if kind == "add" and (answer.tieups or answer.entities):
        objects = [("tieup", i) for i in range(len(answer.tieups))]
        objects += [("entity", i) for i in range(len(answer.entities))]
        obj_kind, i = rng.choice(objects)
        obj = _get(answer, obj_kind, i)
        slot = "activities" if obj_kind == "tieup" else "aliases"
        values = getattr(obj, slot)
        extra = "製造" if obj_kind == "tieup" else _kana(rng, 4)
        while not _unrelated(extra, values):
            extra = _kana(rng, 4)
        key = _set(answer, obj_kind, i, replace(obj, **{slot: values + (extra,)}))
        return key, (cor, 0, 0, 1, 0), kind
    if kind == "superstring" and answer.entities:
        choices = [("entity", i, "name", None) for i in range(len(answer.entities))]
        choices += [c for c in _multi_values(answer) if c[2] != "refs"]
        obj_kind, i, slot, v = rng.choice(choices)
        obj = _get(answer, obj_kind, i)
        if v is None:
            key = _set(answer, obj_kind, i, replace(obj, name=obj.name + "グループ"))
        else:
            values = list(getattr(obj, slot))
            values[v] += "事業"
            key = _set(answer, obj_kind, i, replace(obj, **{slot: tuple(values)}))
        return key, (cor - 1, 1, 0, 0, 0), kind
    if kind == "status" and answer.tieups:
        i = rng.randrange(len(answer.tieups))
        t = answer.tieups[i]
        flipped = "DISSOLVED" if t.status == "EXISTING" else "EXISTING"
        key = _set(answer, "tieup", i, replace(t, status=flipped))
        return key, (cor - 1, 0, 1, 0, 0), kind
    return answer, (cor, 0, 0, 0, 0), "none"


def _kinds(rng: random.Random, count: int) -> list[str]:
    """Perturbation kinds in equal shares, in seeded order."""
    kinds = [PERTURBATIONS[k % len(PERTURBATIONS)] for k in range(count)]
    rng.shuffle(kinds)
    return kinds


def _document(rng, doc_id, sentences, answer, kind) -> Document:
    key, counts, kind = perturb_key(rng, answer, kind)
    return Document(doc_id, token_text(doc_id, sentences), answer, key, counts, kind)


# ----------------------------------------------------------------- tokens


def token_text(doc_id: str, sentences) -> str:
    """Token-file text; ``sentences`` holds lists of (surface, pos)."""
    blocks = ["\n".join(f"{s}\t{p}" for s, p in sent) for sent in sentences]
    return f"#DOC {doc_id}\n" + "\n\n".join(blocks) + "\n#END\n"


def _kana(rng: random.Random, k: int) -> str:
    return "".join(rng.choices(KANA, k=k))


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of ``count`` equal-width strata of [lo, hi], in seeded
    order.

    Sizes are not drawn: matcher cost jumps between neighbouring sentence
    lengths (83 tokens took 0.13 s, 86 tokens 0.27 s) and unification cost
    grows with the square of a document's length, so a seeded size would
    let the seed, not the program, move the figures.
    """
    width = (hi - lo + 1) / count
    values = [lo + int((k + 0.5) * width) for k in range(count)]
    rng.shuffle(values)
    return values


# ------------------------------------------------------------------- news

# The six fixture documents of the test suite, with their company names as
# placeholders, copied so that the benchmark's inputs stay fixed when test
# data changes.  Each sentence is "surface/pos" tokens separated by spaces.
# ``mentions`` lists the registry strings in order, after name recognition,
# with the company each belongs to (None: not a company).
_NEWS_FIXTURES = {
    "abbrev_sale": {
        "names": {"A": (3, "社"), "M1": (4, ""), "M2": (3, "")},
        "sentences": [
            "{A}/company は/particle {M1}・{M2}/company と/particle 提携/verbal-nominal"
            " し/verb た/other 。/punct",
            "{M2}/unknown は/particle 新型車/noun を/particle 販売/verbal-nominal"
            " する/verb 。/punct",
            "自社/noun ブランド/noun を/particle 強化/verbal-nominal する/verb 。/punct",
        ],
        "mentions": [("{A}", "A"), ("{M1}・{M2}", "M"), ("{M2}", "M")],
        "answer": lambda n: Answer(
            (TieUp((1, 2), activities=("販売",)),),
            (Entity(n["A"]), Entity(f"{n['M1']}・{n['M2']}", (n["M2"],))),
        ),
    },
    "dissolved": {
        "names": {"X": (3, "社"), "Y": (3, "社")},
        "sentences": [
            "{X}/company は/particle {Y}/company と/particle の/particle"
            " 提携/verbal-nominal 解消/verbal-nominal を/particle 発表/verbal-nominal"
            " し/verb た/other 。/punct",
        ],
        "mentions": [("{X}", "X"), ("{Y}", "Y")],
        "answer": lambda n: Answer(
            (TieUp((1, 2), status="DISSOLVED"),), (Entity(n["X"]), Entity(n["Y"]))
        ),
    },
    "multi_tieup": {
        "names": {"X": (3, "社"), "Y": (3, "社"), "Z": (3, "社")},
        "sentences": [
            "{X}/company は/particle {Y}/company と/particle 提携/verbal-nominal"
            " し/verb た/other 。/punct",
            "{X}/company は/particle 来月/other 製品/noun を/particle"
            " 販売/verbal-nominal する/verb 。/punct",
            "{X}/company は/particle 昨年/other {Z}/company と/particle 同様/noun"
            " の/particle 提携/verbal-nominal を/particle 始め/verb た/other 。/punct",
        ],
        "mentions": [("{X}", "X"), ("{Y}", "Y"), ("{X}", "X"), ("{X}", "X"), ("{Z}", "Z")],
        "answer": lambda n: Answer(
            (TieUp((1, 2), activities=("販売",)), TieUp((1, 3))),
            (Entity(n["X"]), Entity(n["Y"]), Entity(n["Z"])),
        ),
    },
    "pronouns_a": {
        "names": {"X": (3, "社"), "Y": (3, "社")},
        "sentences": [
            "{X}/company は/particle {Y}/company と/particle 提携/verbal-nominal"
            " し/verb 、/punct 同社/noun の/particle 製品/noun を/particle 自社/noun"
            " ブランド/noun で/particle 販売/verbal-nominal する/verb 。/punct",
        ],
        "mentions": [("{X}", "X"), ("{Y}", "Y")],
        "answer": lambda n: Answer(
            (TieUp((1, 2), activities=("販売",)),), (Entity(n["X"]), Entity(n["Y"]))
        ),
    },
    "pronouns_b": {
        "names": {"X": (3, "社")},
        "sentences": [
            "{X}/company は/particle この/other 分野/noun で/particle は/particle"
            " 最大手/noun 。/punct",
            "同社/noun の/particle 社長/noun は/particle 鈴木/person 氏/person 。/punct",
        ],
        "mentions": [("{X}", "X"), ("鈴木氏", None)],
        "answer": lambda n: Answer(),
    },
    "tanabe_merck": {
        "names": {"T": (4, ""), "E1": (2, ""), "E2": (3, "")},
        "sentences": [
            "{T}/company は/particle 8日/other 、/punct 西独/place の/particle"
            " 医薬/noun メーカー/noun 、/punct {E1}・{E2}/unknown 社/unknown"
            " の/particle 新薬/noun の/particle 日本/place 国内/noun で/particle"
            " の/particle 開発/verbal-nominal 、/punct 販売/verbal-nominal を/particle"
            " する/verb 提携/verbal-nominal 契約/noun を/particle 結ん/verb だ/other"
            " 。/punct",
            "新薬/noun の/particle 販売/verbal-nominal が/particle できる/verb"
            " よう/noun に/particle なる/verb 5、6年先/other に/particle は/particle"
            " 、/punct 両社/noun が/particle 折半/noun 出資/verbal-nominal し/verb"
            " て/particle 合弁/noun 会社/noun を/particle 設立/verbal-nominal"
            " する/verb こと/noun も/particle 合意/verbal-nominal し/verb た/other"
            " 。/punct",
        ],
        "mentions": [("{T}", "T"), ("西独", None), ("{E1}・{E2}社", "E"), ("日本", None)],
        "answer": lambda n: Answer(
            (TieUp((1, 2), jv=("合弁会社",), activities=("販売", "開発")),),
            (Entity(n["T"]), Entity(f"{n['E1']}・{n['E2']}社")),
        ),
    },
}


def _fixture_names(rng: random.Random, fixture: dict) -> dict[str, str]:
    """Fresh names for one fixture copy, redrawn until they unify as planned."""
    for _ in range(_MAX_DRAWS):
        names = {key: _kana(rng, k) + suffix for key, (k, suffix) in fixture["names"].items()}
        mentions = [(s.format(**names), c) for s, c in fixture["mentions"]]
        try:
            check_mentions(mentions)
        except ValueError:
            continue
        return names
    raise RuntimeError("no conflict-free names found")


def _fixture_sentences(fixture: dict, names: dict[str, str]):
    return [
        [tuple(tok.format(**names).rsplit("/", 1)) for tok in sent.split()]
        for sent in fixture["sentences"]
    ]


# The full newspaper article counts twice, which makes seven shares.
_NEWS_SHARES = sorted(_NEWS_FIXTURES) + ["tanabe_merck"]


def news_corpus(seed: int, docs: int = NEWS_DOCS) -> Corpus:
    """Many short documents: renamed copies of the six fixtures, in seeded order."""
    rng = random.Random(f"news:{seed}")
    order = [_NEWS_SHARES[k % len(_NEWS_SHARES)] for k in range(docs)]
    rng.shuffle(order)
    kinds = _kinds(rng, docs)
    out = []
    for k, name in enumerate(order):
        fixture = _NEWS_FIXTURES[name]
        names = _fixture_names(rng, fixture)
        out.append(_document(rng, f"news{k:05d}", _fixture_sentences(fixture, names),
                             fixture["answer"](names), kinds[k]))
    return Corpus("news", seed, tuple(out))


# ---------------------------------------------------------- long_sentence


def long_sentence_tokens(p: str, q: str, length: int):
    """One dense-clause sentence of ``length`` tokens ending in 。."""
    clause = [(p, "company"), ("は", "particle"), (q, "company"), ("と", "particle"),
              ("提携", "verbal-nominal"), ("販売", "verbal-nominal"),
              ("設立", "verbal-nominal"), ("、", "punct")]
    return [clause[i % len(clause)] for i in range(length - 1)] + [("。", "punct")]


def long_sentence_corpus(seed: int, docs: int = LONG_DOCS,
                         tokens: tuple[int, int] = LONG_TOKENS) -> Corpus:
    """A few one-sentence documents whose length sets the matcher's n^3 cost."""
    rng = random.Random(f"long_sentence:{seed}")
    lengths = _stratified(rng, docs, *tokens)
    kinds = _kinds(rng, docs)
    out = []
    for k, length in enumerate(lengths):
        while True:
            p, q = _kana(rng, 3) + "社", _kana(rng, 3) + "社"
            if p != q:
                break
        answer = Answer((TieUp((1, 2), activities=("販売",)),), (Entity(p), Entity(q)))
        out.append(_document(rng, f"long{k:03d}", [long_sentence_tokens(p, q, length)],
                             answer, kinds[k]))
    return Corpus("long_sentence", seed, tuple(out))


# --------------------------------------------------------------- registry


class _RegistryPlan:
    """Companies, registry mentions and aliases of one registry document."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names: list[str] = []  # canonical name per company, first-mention order
        self.words: dict[int, str] = {}  # company -> embedded ASCII word
        self.aliases: list[list[str]] = []
        self.mentions: list[tuple[str, int]] = []
        self.taken: set[str] = set()

    def _add(self, string: str, company: int):
        self.mentions.append((string, company))
        self.taken.add(string)
        if string != self.names[company] and string not in self.aliases[company]:
            self.aliases[company].append(string)

    def fresh(self) -> tuple[str, int]:
        """A new company with a six-character name, maybe with an ASCII word."""
        for _ in range(_MAX_DRAWS):
            word = None
            if self.rng.random() < P_ASCII_NAME:
                word = "".join(self.rng.choices(LETTERS, k=2))
                cut = self.rng.randint(0, 3)
                kana = _kana(self.rng, 3)
                name = kana[:cut] + word + kana[cut:] + "社"
            else:
                name = _kana(self.rng, 5) + "社"
            if name in self.taken:
                continue
            company = len(self.names)
            if word and mention_conflict(self.mentions + [(name, company)], word, company):
                continue
            self.names.append(name)
            self.aliases.append([])
            self._add(name, company)
            if word:
                self.words[company] = word
                self._add(word, company)
            return name, company
        raise RuntimeError("no conflict-free company name found")

    def remention(self) -> tuple[str, int] | None:
        """An abbreviation or ASCII word of an earlier company, if one fits."""
        if self.words and self.rng.random() < P_ASCII_MENTION / (P_ASCII_MENTION + P_ABBREVIATION):
            company = self.rng.choice(sorted(self.words))
            string = self.words[company]
        else:
            company = self.rng.randrange(len(self.names))
            kana = [c for c in self.names[company] if c in KANA]
            picks = sorted(self.rng.sample(range(len(kana)), 3))
            string = "".join(kana[i] for i in picks)
        if mention_conflict(self.mentions, string, company):
            return None
        self._add(string, company)
        return string, company


def registry_document(rng: random.Random, doc_id: str, sentences: int, kind: str) -> Document:
    plan = _RegistryPlan(rng)
    token_sentences = []
    pairs = []
    for _ in range(sentences):
        subject = None
        if plan.names and rng.random() < P_ABBREVIATION + P_ASCII_MENTION:
            subject = plan.remention()
        if subject is None:
            (name, company), pos = plan.fresh(), "company"
        else:
            (name, company), pos = subject, "unknown"
        partner, partner_company = plan.fresh()
        token_sentences.append(
            [(name, pos), ("は", "particle"), (partner, "company"), ("と", "particle"),
             ("提携", "verbal-nominal"), ("し", "verb"), ("た", "other"), ("。", "punct")]
        )
        pairs.append(tuple(sorted((company + 1, partner_company + 1))))
    check_mentions(plan.mentions)
    answer = Answer(
        tuple(TieUp(refs) for refs in pairs),
        tuple(Entity(name, tuple(aliases)) for name, aliases in zip(plan.names, plan.aliases)),
    )
    return _document(rng, doc_id, token_sentences, answer, kind)


def registry_corpus(seed: int, docs: int = REGISTRY_DOCS,
                    sentences: tuple[int, int] = REGISTRY_SENTENCES) -> Corpus:
    """A few long documents of short tie-up sentences with hundreds of companies."""
    rng = random.Random(f"registry:{seed}")
    sizes = _stratified(rng, docs, *sentences)
    kinds = _kinds(rng, docs)
    out = [registry_document(rng, f"registry{k:03d}", n, kinds[k])
           for k, n in enumerate(sizes)]
    return Corpus("registry", seed, tuple(out))


WORKLOADS = {
    "news": news_corpus,
    "long_sentence": long_sentence_corpus,
    "registry": registry_corpus,
}
