"""Slot-fill scoring of response template graphs against answer keys.

Objects of each type are aligned greedily by how many fills they would
score correct; entities are aligned before tie-ups so that reference slots
can be judged by whether the referenced objects ended up aligned.  A kind
with at most ``_SORT_MAX_PAIRS`` (response, key) pairs, as in most news
documents, is aligned by sorting every pair; a larger one through a link
index whose cost grows with the links, not the pairs (the size ladder
behind the constant is in its comment).  Both give the same pairs.  Each
fill lands in one of five categories: correct, partially correct (one value
a substring of the other after whitespace normalization), incorrect,
missing, spurious.  The seven summary measures are stated once, as integer
(numerator, denominator) pairs: ``compute_metrics`` builds exact Fractions
from them, and the report table rounds them half-up to one decimal percent
straight from the integers.  ``fractions`` is imported on first use, since
extraction never builds a Fraction.
"""

from typing import TYPE_CHECKING, NamedTuple

from .templates import SLOT_PLAN, EntityObject, TemplateGraph, TieUpObject

if TYPE_CHECKING:
    from fractions import Fraction

METRIC_NAMES = ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "PR")


class ScoreCounts(NamedTuple):
    cor: int = 0
    par: int = 0
    inc: int = 0
    mis: int = 0
    spu: int = 0

    def __add__(self, other: "ScoreCounts") -> "ScoreCounts":
        """Element-wise, never tuple concatenation."""
        return ScoreCounts(*[a + b for a, b in zip(self, other)])

    @property
    def possible(self) -> int:
        return self.cor + self.par + self.inc + self.mis

    @property
    def actual(self) -> int:
        return self.cor + self.par + self.inc + self.spu


class Metrics(NamedTuple):
    err: "Fraction"
    und: "Fraction"
    ovg: "Fraction"
    sub: "Fraction"
    rec: "Fraction"
    pre: "Fraction"
    pr: "Fraction"
    undefined: frozenset[str] = frozenset()  # metrics whose ratio was 0/0

    def as_percentages(self) -> dict[str, float]:
        values = (self.err, self.und, self.ovg, self.sub, self.rec, self.pre, self.pr)
        return dict(zip(METRIC_NAMES, map(round_percent, values)))


def _ratios(c: ScoreCounts) -> tuple[tuple[int, int], ...]:
    """The seven measures as (numerator, denominator) pairs, in METRIC_NAMES
    order; a 0 denominator marks a 0/0 measure.  Numerators carrying a PAR/2
    term arrive doubled, over a doubled denominator."""
    possible, actual = c.possible, c.actual
    right = 2 * c.cor + c.par
    return (
        (2 * c.inc + c.par + 2 * c.mis + 2 * c.spu, 2 * (possible + c.spu)),
        (c.mis, possible),
        (c.spu, actual),
        (2 * c.inc + c.par, 2 * (c.cor + c.par + c.inc)),
        (right, 2 * possible),
        (right, 2 * actual),
        # f_measure(REC, PRE) reduced: both share the numerator 2·COR + PAR,
        # and when it is nonzero, so are possible and actual.
        (right, possible + actual if right else 0),
    )


def _percent(num: int, den: int) -> float:
    """num/den as a percentage rounded half-up to one decimal; 0 when den is 0."""
    if not den:
        return 0.0
    tenths, rest = divmod(1000 * num, den)
    if 2 * rest >= den:
        tenths += 1
    return tenths / 10


def round_percent(value: "Fraction") -> float:
    """Percentage rounded half-up to one decimal (0.6375 -> 63.8)."""
    return _percent(*value.as_integer_ratio())


_fraction = None  # fractions.Fraction, once a metric has needed it


def _fraction_type():
    """``fractions.Fraction``, imported the first time a metric is built; an
    import statement in ``compute_metrics`` would add a fifth to each call."""
    global _fraction
    if _fraction is None:
        from fractions import Fraction as _fraction
    return _fraction


def compute_metrics(counts: ScoreCounts) -> Metrics:
    """The error-based and recall/precision-based measures; 0/0 is 0, flagged."""
    Fraction = _fraction_type()
    values = []
    undefined = []
    for name, (num, den) in zip(METRIC_NAMES, _ratios(counts)):
        if den:
            values.append(Fraction(num, den))
        else:
            values.append(Fraction(0))
            undefined.append(name)
    return Metrics(*values, frozenset(undefined))


def f_measure(rec: "Fraction", pre: "Fraction") -> "Fraction":
    """2·rec·pre / (rec + pre), built as one Fraction from integers."""
    a, b = rec.numerator, rec.denominator
    c, d = pre.numerator, pre.denominator
    return _fraction_type()(2 * a * c, a * d + c * b)


# Slots with a fixed vocabulary; every other slot is open.
_CLOSED_SLOTS = ("STATUS", "TYPE", "WARNING")


def _fills(obj: EntityObject | TieUpObject) -> list[tuple[str, str]]:
    """Flatten an object into (slot, value) fills; refs use ENTITY:n form."""
    return [(slot, v) for slot, values in _slot_values(obj, None).items() for v in values]


def _is_partial(a: str, b: str) -> bool:
    a, b = " ".join(a.split()), " ".join(b.split())  # whitespace normalized
    return a != b and (a in b or b in a)


def _slot_values(obj, entity_map: dict[int, int] | None) -> dict[str, list[str]]:
    """slot -> list of comparable values, read off the object's fields; with
    ``entity_map``, response refs are mapped through the entity alignment."""
    out = {}
    for slot, (i, multi) in SLOT_PLAN[type(obj)].items():
        value = obj[i]
        if not value:
            continue
        if slot == "ENTITIES" and entity_map is not None:
            value = [f"ENTITY:{entity_map[r]}" if r in entity_map else f"unaligned:{r}"
                     for r in value]
        elif slot == "ENTITIES":
            value = [f"ENTITY:{r}" for r in value]
        out[slot] = list(value) if multi else [value]
    return out


class FillScore(NamedTuple):
    """One scored fill: where it sat, what was compared, how it landed."""

    kind: str  # ENTITY | TIE_UP
    label: str  # e.g. "TIE_UP-1~TIE_UP-1", "ENTITY-2" for unaligned objects
    slot: str
    key_value: str | None
    resp_value: str | None
    category: str  # COR | PAR | INC | MIS | SPU


def _score_pair(kind, label, resp_slots, key_slots) -> list[FillScore]:
    records = []
    for slot in sorted(resp_slots.keys() | key_slots.keys()):
        resp_vals = resp_slots.get(slot, [])
        key_vals = key_slots.get(slot, [])
        if resp_vals == key_vals:
            records.extend([FillScore(kind, label, slot, v, v, "COR") for v in key_vals])
            continue
        # Slot tables are shared by every pair an object joins, so the value
        # lists are copied before they are consumed.
        resp_vals, key_vals = list(resp_vals), list(key_vals)
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
        resp_vals = resp_slots.get(slot)
        if resp_vals == key_vals:
            cor += len(key_vals)
        elif resp_vals:
            resp_vals = list(resp_vals)
            for kv in key_vals:
                if kv in resp_vals:
                    cor += 1
                    resp_vals.remove(kv)
    return cor


# Pair count up to which a kind is aligned by sorting every pair, from a size
# ladder of µs per call, index / sort, on k x k entity graphs: 8.9 / 3.7 at
# 1 x 1, 17.4 / 7.7 at 2 x 2, 35.0 / 28.7 at 4 x 4, 40.9 / 41.9 at 5 x 5 and
# 67.9 / 87.7 at 8 x 8.  Shapes of 18 to 24 pairs (3 x 6, 4 x 5, 2 x 12)
# already favour the index.
_SORT_MAX_PAIRS = 16


def _align_type(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """Greedy pairing by descending shared-correct count, ids break ties.

    The result is that of sorting every (key, response) pair by (-COR, key
    id, response id) and taking each pair whose two objects are still free,
    provided object ids are unique within each side (``parse_templates``
    rejects duplicates and ``generate_templates`` numbers objects 1..n).
    A kind with few pairs is aligned by doing just that; a larger one by the
    link index, which gives the same pairs.
    """
    if len(resp_objs) * len(key_objs) <= _SORT_MAX_PAIRS:
        return _align_by_sorting(resp_objs, key_objs, resp_slots, key_slots)
    return _align_by_index(resp_objs, key_objs, resp_slots, key_slots)


def _align_by_sorting(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """The greedy rule as stated: every pair counted, sorted and taken while free."""
    candidates = sorted([
        (-_pair_cor_count(rs, ks), key.object_id, resp.object_id, ri, ki)
        for ki, (key, ks) in enumerate(zip(key_objs, key_slots))
        for ri, (resp, rs) in enumerate(zip(resp_objs, resp_slots))
    ])
    taken_resp, taken_key = set(), set()
    pairs = []
    for _cor, _kid, _rid, ri, ki in candidates:
        if ri not in taken_resp and ki not in taken_key:
            taken_resp.add(ri)
            taken_key.add(ki)
            pairs.append((ri, ki))
    return pairs


def _align_by_index(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """``_align_type``'s pairs without visiting every pair.

    COR splits into a closed part, the number of (slot, value) pairs two
    signatures share (closed slots hold one value each), and an open part,
    nonzero only for linked pairs, which share a value.  One COR level at a
    time, from the highest, each free key in id order takes its lowest-id
    free candidate: a linked response at that level, or the first free
    response of each signature group whose closed part equals the level.
    Were that response linked to the key at a higher COR, the key or the
    response would have been taken there.
    """
    key_index: dict[str, list[int]] = {}  # open value -> keys holding it
    key_sigs = []
    for ki, slots in enumerate(key_slots):
        sig = []
        for slot, values in slots.items():
            if slot in _CLOSED_SLOTS:
                sig.append((slot, values[0]))
            else:
                for value in values:
                    key_index.setdefault(value, []).append(ki)
        key_sigs.append(tuple(sig))

    # Responses go by their position in id order: a lower position is a lower id.
    order = sorted(range(len(resp_objs)), key=lambda ri: resp_objs[ri].object_id)
    resp_sigs = []
    groups: dict[tuple, list[int]] = {}  # signature -> free positions, in order
    linked: list[dict[int, int]] = [{} for _ in key_objs]  # ki -> {position: COR}, in order
    levels = set()
    for pos, ri in enumerate(order):
        slots = resp_slots[ri]
        sig = []
        for slot, values in slots.items():
            if slot in _CLOSED_SLOTS:
                sig.append((slot, values[0]))
            else:
                for value in values:
                    for ki in key_index.get(value, ()):
                        links = linked[ki]
                        if pos not in links:
                            links[pos] = cor = _pair_cor_count(slots, key_slots[ki])
                            levels.add(cor)
        resp_sigs.append(tuple(sig))
        groups.setdefault(resp_sigs[-1], []).append(pos)
    # Key signature -> (closed COR, group) for every response group.
    closed: dict[tuple, list[tuple[int, list[int]]]] = {}
    for ks in key_sigs:
        if ks not in closed:
            offers = closed[ks] = []
            for rs, members in groups.items():
                cor = sum(map(rs.__contains__, ks))
                offers.append((cor, members))
                levels.add(cor)

    free_keys = sorted(range(len(key_objs)), key=lambda ki: key_objs[ki].object_id)
    taken: set[int] = set()
    pairs = []
    for level in sorted(levels, reverse=True):
        still_free = []
        for ki in free_keys:
            best = None
            for pos, cor in linked[ki].items():
                if cor == level and pos not in taken:
                    best = pos
                    break
            for cor, members in closed[key_sigs[ki]]:
                if cor == level and members and (best is None or members[0] < best):
                    best = members[0]
            if best is None:
                still_free.append(ki)
                continue
            taken.add(best)
            groups[resp_sigs[best]].remove(best)
            pairs.append((order[best], ki))
        free_keys = still_free
        if not free_keys or len(taken) == len(resp_objs):
            break
    return pairs


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
    n = {"COR": 0, "PAR": 0, "INC": 0, "MIS": 0, "SPU": 0}  # ScoreCounts order
    for r in records:
        n[r.category] += 1
    return ScoreCounts(*n.values())


def align_and_count(response: TemplateGraph, key: TemplateGraph) -> ScoreCounts:
    """Tally the five scoring categories for one response/key pair."""
    return tally(score_fills(response, key))


class DocumentScore(NamedTuple):
    doc_id: str
    fills: list[FillScore]
    counts: ScoreCounts
    metrics: Metrics


class ScoreReport:
    __slots__ = ("documents",)

    def __init__(self, documents: list[DocumentScore] | None = None):
        self.documents = [] if documents is None else documents

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
            lines.append(_format_row(doc.doc_id, doc.counts))
        lines.append(_format_row("TOTAL", self.total_counts))
        return "\n".join(lines)

    def format(self) -> str:
        listing = self.format_listing()
        return (listing + "\n\n" if listing else "") + self.format_table()


_TABLE_HEADER = f"{'DOC':<16}" + "".join(
    f"{name:>8}" for name in ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "P&R")
)
_ROW = "%-16s" + "%8.1f" * len(METRIC_NAMES)


def _format_row(label: str, counts: ScoreCounts) -> str:
    """One table row, rounded from the counts without building a Fraction."""
    return _ROW % (label, *[_percent(num, den) for num, den in _ratios(counts)])


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
