"""Slot-fill scoring of response template graphs against answer keys.

Objects of each type are aligned greedily by how many fills they would
score correct; entities are aligned before tie-ups so that reference slots
can be judged by whether the referenced objects ended up aligned.  A kind
with at most ``_SORT_MAX_PAIRS`` (response, key) pairs, as in most news
documents, is aligned by sorting every pair; a larger one through a link
index whose cost grows with the links, not the pairs (the size ladder
behind the constant is in its comment).  Both give the same pairs.  Each
object's slot table is built once and read by the alignment, by its pair's
scoring and by the listing of an object left over.  Each fill lands in one
of five categories: correct (the two strings equal as written), partially
correct (after whitespace normalization the two differ and one is a
substring of the other), incorrect, missing, spurious.  So two values equal
only after whitespace normalization score incorrect.
The seven summary measures are stated once, as integer (numerator,
denominator) pairs: ``compute_metrics`` builds exact Fractions from them,
and the report table rounds them half-up to one decimal percent straight
from the integers.
"""

from fractions import Fraction
from operator import itemgetter

from .records import Record
from .templates import SLOT_PLAN, EntityObject, TemplateGraph, TieUpObject

METRIC_NAMES = ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "PR")


class ScoreCounts(Record):
    __slots__ = ()

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


class Metrics(Record):
    __slots__ = ()

    err: Fraction
    und: Fraction
    ovg: Fraction
    sub: Fraction
    rec: Fraction
    pre: Fraction
    pr: Fraction
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


def round_percent(value: Fraction) -> float:
    """Percentage rounded half-up to one decimal (0.6375 -> 63.8)."""
    return _percent(*value.as_integer_ratio())


def compute_metrics(counts: ScoreCounts) -> Metrics:
    """The error-based and recall/precision-based measures; 0/0 is 0, flagged."""
    values = []
    undefined = []
    for name, (num, den) in zip(METRIC_NAMES, _ratios(counts)):
        if den:
            values.append(Fraction(num, den))
        else:
            values.append(Fraction(0))
            undefined.append(name)
    return Metrics(*values, frozenset(undefined))


def f_measure(rec: Fraction, pre: Fraction) -> Fraction:
    """2·rec·pre / (rec + pre), built as one Fraction from integers."""
    a, b = rec.numerator, rec.denominator
    c, d = pre.numerator, pre.denominator
    return Fraction(2 * a * c, a * d + c * b)


# Slots with a fixed vocabulary; every other slot is open.
_CLOSED_SLOTS = ("STATUS", "TYPE", "WARNING")


def _is_partial(a: str, b: str) -> bool:
    a, b = " ".join(a.split()), " ".join(b.split())  # whitespace normalized
    return a != b and (a in b or b in a)


class _TablePlan(Record):
    """What scoring reads of one object class's slots, in name order: each
    slot's object field index and whether it is multi-valued, and which
    table positions hold closed slots, open slots and, in layout order,
    every slot."""

    __slots__ = ()

    rows: tuple[tuple[str, int, bool], ...]
    names: tuple[str, ...]
    closed: tuple[int, ...]
    open: tuple[int, ...]
    layout: tuple[int, ...]


def _table_plan(plan: dict[str, tuple[int, bool]]) -> _TablePlan:
    names = tuple(sorted(plan))
    return _TablePlan(
        tuple((slot, *plan[slot]) for slot in names),
        names,
        tuple(n for n, slot in enumerate(names) if slot in _CLOSED_SLOTS),
        tuple(n for n, slot in enumerate(names) if slot not in _CLOSED_SLOTS),
        tuple(names.index(slot) for slot in plan),
    )


_TABLE_PLANS = {cls: _table_plan(plan) for cls, plan in SLOT_PLAN.items()}


def _slot_tables(objs, entity_map: dict[int, int] | None) -> list[tuple[tuple[str, ...], ...]]:
    """Each object's slot table: per slot in name order, the tuple of its
    comparable values, empty for an empty field.  References read
    ``ENTITY:n``; with ``entity_map``, response refs are mapped through the
    entity alignment."""
    if not objs:
        return []
    rows = _TABLE_PLANS[type(objs[0])].rows
    tables = []
    for obj in objs:
        table = []
        for slot, i, multi in rows:
            value = obj[i]
            if not multi:
                table.append((value,) if value else ())
            elif slot == "ENTITIES":
                table.append(_refs(value, entity_map))
            else:
                table.append(tuple(value))
        tables.append(tuple(table))
    return tables


def _refs(refs: tuple[int, ...], entity_map: dict[int, int] | None) -> tuple[str, ...]:
    """Entity references as ``ENTITY:n``, mapped through ``entity_map`` when
    given (``unaligned:n`` for a response entity with no partner)."""
    if entity_map is None:
        return tuple([f"ENTITY:{r}" for r in refs])
    return tuple([f"ENTITY:{entity_map[r]}" if r in entity_map else f"unaligned:{r}"
                  for r in refs])


class FillScore(Record):
    """One scored fill: where it sat, what was compared, how it landed."""

    __slots__ = ()

    kind: str  # ENTITY | TIE_UP
    label: str  # e.g. "TIE_UP-1~TIE_UP-1", "ENTITY-2" for unaligned objects
    slot: str
    key_value: str | None
    resp_value: str | None
    category: str  # COR | PAR | INC | MIS | SPU


_new = tuple.__new__  # builds a FillScore without its Python-level __new__


def _score_pair(records, kind, label, names, resp_table, key_table) -> None:
    """Append the fills of one aligned pair to ``records``, slot by slot in
    name order."""
    if resp_table == key_table:
        for slot, values in zip(names, key_table):
            for v in values:
                records.append(_new(FillScore, (kind, label, slot, v, v, "COR")))
        return
    for slot, resp_vals, key_vals in zip(names, resp_table, key_table):
        if resp_vals == key_vals:
            records += [_new(FillScore, (kind, label, slot, v, v, "COR")) for v in key_vals]
            continue
        # Exact matches first, in key order.
        resp_left = list(resp_vals)
        key_left = []
        for kv in key_vals:
            if kv in resp_left:
                records.append(_new(FillScore, (kind, label, slot, kv, kv, "COR")))
                resp_left.remove(kv)
            else:
                key_left.append(kv)
        # Substring partials; reference slots never match partially.
        if slot != "ENTITIES" and key_left and resp_left:
            unmatched = []
            for kv in key_left:
                partial = next((rv for rv in resp_left if _is_partial(kv, rv)), None)
                if partial is None:
                    unmatched.append(kv)
                else:
                    records.append(_new(FillScore, (kind, label, slot, kv, partial, "PAR")))
                    resp_left.remove(partial)
            key_left = unmatched
        # Remaining cross pairs are incorrect; leftovers missing/spurious.
        n = min(len(key_left), len(resp_left))
        records += [_new(FillScore, (kind, label, slot, kv, rv, "INC"))
                    for kv, rv in zip(key_left, resp_left)]
        records += [_new(FillScore, (kind, label, slot, kv, None, "MIS")) for kv in key_left[n:]]
        records += [_new(FillScore, (kind, label, slot, None, rv, "SPU")) for rv in resp_left[n:]]


def _pair_cor_count(resp_table, key_table) -> int:
    if resp_table == key_table:
        return sum(map(len, key_table))
    cor = 0
    for resp_vals, key_vals in zip(resp_table, key_table):
        if resp_vals == key_vals:
            cor += len(key_vals)
        elif resp_vals and key_vals:
            resp_left = list(resp_vals)
            for kv in key_vals:
                if kv in resp_left:
                    cor += 1
                    resp_left.remove(kv)
    return cor


# Pair count up to which a kind is aligned by sorting every pair, from a size
# ladder of µs per call, index / sort, on k x k entity graphs: 5.6 / 0.2 at
# 1 x 1, 8.9 / 5.1 at 2 x 2, 12.7 / 10.7 at 3 x 3, 17.5 / 17.9 at 4 x 4,
# 19.7 / 27.4 at 5 x 5 and 31.1 / 68.7 at 8 x 8.  Shapes of 18 to 24 pairs
# (3 x 6, 4 x 5, 2 x 12) already favour the index.
_SORT_MAX_PAIRS = 16


def _align_type(resp_objs, key_objs, resp_tables, key_tables) -> list[tuple[int, int]]:
    """Greedy pairing by descending shared-correct count, ids break ties.

    The result is that of sorting every (key, response) pair by (-COR, key
    id, response id) and taking each pair whose two objects are still free,
    provided object ids are unique within each side (``parse_templates``
    rejects duplicates and ``generate_templates`` numbers objects 1..n).
    A kind with few pairs is aligned by doing just that; a larger one by the
    link index, which gives the same pairs.
    """
    if len(resp_objs) * len(key_objs) <= _SORT_MAX_PAIRS:
        return _align_by_sorting(resp_objs, key_objs, resp_tables, key_tables)
    return _align_by_index(resp_objs, key_objs, resp_tables, key_tables)


def _align_by_sorting(resp_objs, key_objs, resp_tables, key_tables) -> list[tuple[int, int]]:
    """The greedy rule as stated: every pair counted, sorted and taken while
    free.  A lone pair is taken without counting."""
    if len(resp_objs) == 1 == len(key_objs):
        return [(0, 0)]
    candidates = sorted([
        (-_pair_cor_count(rt, kt), key.object_id, resp.object_id, ri, ki)
        for ki, (key, kt) in enumerate(zip(key_objs, key_tables))
        for ri, (resp, rt) in enumerate(zip(resp_objs, resp_tables))
    ])
    taken_resp, taken_key = set(), set()
    pairs = []
    for _cor, _kid, _rid, ri, ki in candidates:
        if ri not in taken_resp and ki not in taken_key:
            taken_resp.add(ri)
            taken_key.add(ki)
            pairs.append((ri, ki))
    return pairs


def _align_by_index(resp_objs, key_objs, resp_tables, key_tables) -> list[tuple[int, int]]:
    """``_align_type``'s pairs without visiting every pair.

    Objects go by rank, their position in id order.  COR splits into a
    closed part, the closed slots two tables hold the same value in (so at
    most the kind's closed slot count), and an open part, nonzero only for
    linked pairs, which share a value.  Above the closed slot count only
    linked pairs reach a level, so those are taken as sorting every pair
    would take them.  Below it the rest go one COR level at a time, from
    the highest: each free key in rank order takes its lowest-ranked free
    candidate, a linked response at that level or the first free response
    of each closed signature group whose closed part equals the level.
    Were that response linked to the key at a higher COR, the key or the
    response would have been taken there.
    """
    if not resp_objs or not key_objs:
        return []
    plan = _TABLE_PLANS[type(key_objs[0])]
    key_order = sorted(range(len(key_objs)), key=[obj[0] for obj in key_objs].__getitem__)
    resp_order = sorted(range(len(resp_objs)), key=[obj[0] for obj in resp_objs].__getitem__)
    key_tables = [key_tables[ki] for ki in key_order]
    resp_tables = [resp_tables[ri] for ri in resp_order]

    key_index: dict[str, list[int]] = {}  # open value -> key ranks holding it
    for k, table in enumerate(key_tables):
        for n in plan.open:
            for value in table[n]:
                key_index.setdefault(value, []).append(k)
    linked: list[dict[int, int]] = [{} for _ in key_tables]  # k -> {r: COR}, r ascending
    candidates = []  # (-COR, k, r) per linked pair
    for r, table in enumerate(resp_tables):
        for n in plan.open:
            for value in table[n]:
                for k in key_index.get(value, ()):
                    links = linked[k]
                    if r not in links:
                        links[r] = cor = _pair_cor_count(table, key_tables[k])
                        candidates.append((-cor, k, r))

    candidates.sort()
    top_closed = len(plan.closed)
    key_taken: set[int] = set()
    resp_taken: set[int] = set()
    pairs = []
    levels = set()
    for neg_cor, k, r in candidates:
        if -neg_cor <= top_closed:
            levels.add(-neg_cor)
        elif k not in key_taken and r not in resp_taken:
            key_taken.add(k)
            resp_taken.add(r)
            pairs.append((resp_order[r], key_order[k]))
    free_keys = [k for k in range(len(key_tables)) if k not in key_taken]
    if not free_keys or len(resp_taken) == len(resp_tables):
        return pairs

    def signature(table):
        return tuple([(n, table[n]) for n in plan.closed if table[n]])

    groups: dict[tuple, list[int]] = {}  # signature -> free response ranks, in order
    resp_sigs = {}
    for r, table in enumerate(resp_tables):
        if r not in resp_taken:
            resp_sigs[r] = sig = signature(table)
            groups.setdefault(sig, []).append(r)
    key_sigs = {k: signature(key_tables[k]) for k in free_keys}
    closed: dict[tuple, list[tuple[int, list[int]]]] = {}  # key signature -> offers
    for ks in key_sigs.values():
        if ks not in closed:
            offers = closed[ks] = []
            for rs, members in groups.items():
                cor = sum(map(rs.__contains__, ks))
                offers.append((cor, members))
                levels.add(cor)

    for level in sorted(levels, reverse=True):
        still_free = []
        for k in free_keys:
            best = None
            for r, cor in linked[k].items():
                if cor == level and r not in resp_taken:
                    best = r
                    break
            for cor, members in closed[key_sigs[k]]:
                if cor == level and members and (best is None or members[0] < best):
                    best = members[0]
            if best is None:
                still_free.append(k)
                continue
            resp_taken.add(best)
            groups[resp_sigs[best]].remove(best)
            pairs.append((resp_order[best], key_order[k]))
        free_keys = still_free
        if not free_keys or len(resp_taken) == len(resp_tables):
            break
    return pairs


def score_fills(response: TemplateGraph, key: TemplateGraph) -> list[FillScore]:
    """Align the two graphs and score every fill of both sides.

    Each object's slot table is built once and read by the alignment, by
    its pair's scoring and, for an object left over, by its MIS or SPU
    listing.  An aligned pair lists its fills slot by slot in name order,
    an object left over in layout order; a response tie-up left over
    names its entities in its own numbering, not the key's.
    """
    records: list[FillScore] = []
    entity_map: dict[int, int] = {}

    # Entities align first so tie-up reference slots see their pairing.
    for kind, cls, resp_objs, key_objs in (
        ("ENTITY", EntityObject, response.entities, key.entities),
        ("TIE_UP", TieUpObject, response.tieups, key.tieups),
    ):
        # Entities have no ENTITIES slot, so the still-empty map is inert on
        # the first pass; tie-up tables see the finished entity alignment.
        resp_tables = _slot_tables(resp_objs, entity_map)
        key_tables = _slot_tables(key_objs, None)

        pairs = _align_type(resp_objs, key_objs, resp_tables, key_tables)
        pairs.sort(key=itemgetter(1))  # by key position
        plan = _TABLE_PLANS[cls]
        names = plan.names
        for ri, ki in pairs:
            resp_id, key_id = resp_objs[ri][0], key_objs[ki][0]
            if kind == "ENTITY":
                entity_map[resp_id] = key_id
            label = f"{kind}-{resp_id}~{kind}-{key_id}"
            _score_pair(records, kind, label, names, resp_tables[ri], key_tables[ki])

        if len(pairs) < len(key_objs):
            aligned = {ki for _, ki in pairs}
            for ki, key_obj in enumerate(key_objs):
                if ki not in aligned:
                    label = f"{kind}-{key_obj[0]}"
                    table = key_tables[ki]
                    records += [_new(FillScore, (kind, label, names[n], v, None, "MIS"))
                                for n in plan.layout for v in table[n]]
        if len(pairs) < len(resp_objs):
            aligned = {ri for ri, _ in pairs}
            for ri, resp_obj in enumerate(resp_objs):
                if ri not in aligned:
                    label = f"{kind}-{resp_obj[0]}"
                    for n in plan.layout:
                        values = resp_tables[ri][n]
                        if names[n] == "ENTITIES":  # mapped in the table; listed unmapped
                            values = _refs(resp_obj.entity_refs, None)
                        records += [_new(FillScore, (kind, label, names[n], None, v, "SPU"))
                                    for v in values]
    return records


def tally(records: list[FillScore]) -> ScoreCounts:
    n = {"COR": 0, "PAR": 0, "INC": 0, "MIS": 0, "SPU": 0}  # ScoreCounts order
    for r in records:
        n[r[5]] += 1
    return ScoreCounts(*n.values())


def align_and_count(response: TemplateGraph, key: TemplateGraph) -> ScoreCounts:
    """Tally the five scoring categories for one response/key pair."""
    return tally(score_fills(response, key))


class DocumentScore(Record):
    __slots__ = ()

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
            for _, label, slot, key_value, resp_value, category in doc.fills:
                key_side = key_value if key_value is not None else "-"
                resp_side = resp_value if resp_value is not None else "-"
                lines.append(f"  {category} {label} {slot}: {key_side} | {resp_side}")
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
