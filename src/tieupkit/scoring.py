"""Slot-fill scoring of response template graphs against answer keys.

Objects of each type are aligned greedily by how many fills they would
score correct; entities are aligned before tie-ups so that reference slots
can be judged by whether the referenced objects ended up aligned.  Each
fill lands in one of five categories: correct, partially correct (one value
a substring of the other after whitespace normalization), incorrect,
missing, spurious.  The seven summary measures are computed in exact
rational arithmetic and rounded half-up to one decimal percent only when
printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .templates import EntityObject, TemplateGraph, TieUpObject

METRIC_NAMES = ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "PR")


@dataclass
class ScoreCounts:
    cor: int = 0
    par: int = 0
    inc: int = 0
    mis: int = 0
    spu: int = 0

    def __add__(self, other: "ScoreCounts") -> "ScoreCounts":
        return ScoreCounts(
            self.cor + other.cor,
            self.par + other.par,
            self.inc + other.inc,
            self.mis + other.mis,
            self.spu + other.spu,
        )

    @property
    def possible(self) -> int:
        return self.cor + self.par + self.inc + self.mis

    @property
    def actual(self) -> int:
        return self.cor + self.par + self.inc + self.spu


@dataclass(frozen=True)
class Metrics:
    err: Fraction
    und: Fraction
    ovg: Fraction
    sub: Fraction
    rec: Fraction
    pre: Fraction
    pr: Fraction
    undefined: frozenset[str] = frozenset()  # metrics whose ratio was 0/0

    def as_percentages(self) -> dict[str, float]:
        return {
            name: round_percent(value)
            for name, value in zip(
                METRIC_NAMES,
                (self.err, self.und, self.ovg, self.sub, self.rec, self.pre, self.pr),
            )
        }


def round_percent(value: Fraction) -> float:
    """Percentage rounded half-up to one decimal (0.6375 -> 63.8)."""
    scaled = value * 1000
    floor = scaled.numerator // scaled.denominator
    if 2 * (scaled - floor) >= 1:
        floor += 1
    return floor / 10


def compute_metrics(counts: ScoreCounts) -> Metrics:
    """The error-based and recall/precision-based measures; 0/0 is 0, flagged."""
    undefined: set[str] = set()

    def ratio(name: str, num: int, den: int) -> Fraction:
        # Numerators carrying a PAR/2 term arrive pre-doubled with a doubled
        # denominator, keeping everything in one exact Fraction.
        if den == 0:
            undefined.add(name)
            return Fraction(0)
        return Fraction(num, den)

    c = counts
    total = c.cor + c.par + c.inc + c.mis + c.spu
    err = ratio("ERR", 2 * c.inc + c.par + 2 * c.mis + 2 * c.spu, 2 * total)
    und = ratio("UND", c.mis, c.possible)
    ovg = ratio("OVG", c.spu, c.actual)
    sub = ratio("SUB", 2 * c.inc + c.par, 2 * (c.cor + c.par + c.inc))
    rec = ratio("REC", 2 * c.cor + c.par, 2 * c.possible)
    pre = ratio("PRE", 2 * c.cor + c.par, 2 * c.actual)
    if rec or pre:
        # f_measure(rec, pre) reduced: both ratios share the numerator
        # 2·COR + PAR, and COR + PAR > 0 here, so possible, actual > 0.
        pr = Fraction(2 * c.cor + c.par, c.possible + c.actual)
    else:
        pr = Fraction(0)
        undefined.add("PR")
    return Metrics(err, und, ovg, sub, rec, pre, pr, frozenset(undefined))


def f_measure(rec: Fraction, pre: Fraction) -> Fraction:
    """2·rec·pre / (rec + pre), built as one Fraction from integers."""
    a, b = rec.numerator, rec.denominator
    c, d = pre.numerator, pre.denominator
    return Fraction(2 * a * c, a * d + c * b)


def _fills(obj: EntityObject | TieUpObject) -> list[tuple[str, str]]:
    """Flatten an object into (slot, value) fills; refs use ENTITY:n form."""
    if isinstance(obj, EntityObject):
        fills = []
        if obj.name:
            fills.append(("NAME", obj.name))
        fills.extend(("ALIASES", a) for a in obj.aliases)
        if obj.entity_type:
            fills.append(("TYPE", obj.entity_type))
        return fills
    fills = [("ENTITIES", f"ENTITY:{r}") for r in obj.entity_refs]
    fills.extend(("JV-COMPANY", v) for v in obj.jv_company)
    fills.extend(("ACTIVITY", v) for v in obj.activities)
    if obj.status:
        fills.append(("STATUS", obj.status))
    if obj.warning:
        fills.append(("WARNING", obj.warning))
    return fills


def _normalize(value: str) -> str:
    return " ".join(value.split())


def _is_partial(a: str, b: str) -> bool:
    a, b = _normalize(a), _normalize(b)
    return a != b and (a in b or b in a)


def _slot_values(obj, entity_map: dict[int, int] | None):
    """slot -> list of comparable values, mapping response refs via alignment."""
    out: dict[str, list[str]] = {}
    for slot, value in _fills(obj):
        if slot == "ENTITIES" and entity_map is not None:
            ref = int(value.split(":")[1])
            mapped = entity_map.get(ref)
            value = f"ENTITY:{mapped}" if mapped is not None else f"unaligned:{ref}"
        out.setdefault(slot, []).append(value)
    return out


@dataclass(frozen=True)
class FillScore:
    """One scored fill: where it sat, what was compared, how it landed."""

    kind: str  # ENTITY | TIE_UP
    label: str  # e.g. "TIE_UP-1~TIE_UP-1", "ENTITY-2" for unaligned objects
    slot: str
    key_value: str | None
    resp_value: str | None
    category: str  # COR | PAR | INC | MIS | SPU


def _score_pair(kind, label, resp_slots, key_slots) -> list[FillScore]:
    # Slot tables are shared by every pair an object joins, so the value
    # lists are copied before they are consumed here and in _pair_cor_count.
    records = []
    for slot in sorted(set(resp_slots) | set(key_slots)):
        resp_vals = list(resp_slots.get(slot, []))
        key_vals = list(key_slots.get(slot, []))
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
        resp_vals = list(resp_slots.get(slot, []))
        for kv in key_vals:
            if kv in resp_vals:
                cor += 1
                resp_vals.remove(kv)
    return cor


def _align_type(resp_objs, key_objs, resp_slots, key_slots) -> list[tuple[int, int]]:
    """Greedy pairing by descending shared-correct count, ids break ties."""
    candidates = []
    for ki, key_obj in enumerate(key_objs):
        for ri, resp_obj in enumerate(resp_objs):
            cor = _pair_cor_count(resp_slots[ri], key_slots[ki])
            candidates.append((-cor, key_obj.object_id, resp_obj.object_id, ki, ri))
    candidates.sort()
    used_keys: set[int] = set()
    used_resps: set[int] = set()
    pairs = []
    for _neg_cor, _kid, _rid, ki, ri in candidates:
        if ki in used_keys or ri in used_resps:
            continue
        used_keys.add(ki)
        used_resps.add(ri)
        pairs.append((ri, ki))
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
    counts = ScoreCounts()
    for r in records:
        setattr(counts, r.category.lower(), getattr(counts, r.category.lower()) + 1)
    return counts


def align_and_count(response: TemplateGraph, key: TemplateGraph) -> ScoreCounts:
    """Tally the five scoring categories for one response/key pair."""
    return tally(score_fills(response, key))


@dataclass
class DocumentScore:
    doc_id: str
    fills: list[FillScore]
    counts: ScoreCounts
    metrics: Metrics


@dataclass
class ScoreReport:
    documents: list[DocumentScore] = field(default_factory=list)

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
        header = f"{'DOC':<16}" + "".join(f"{name:>8}" for name in
                                          ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "P&R"))
        lines = [header]
        for doc in self.documents:
            lines.append(_format_row(doc.doc_id, doc.metrics))
        lines.append(_format_row("TOTAL", self.total_metrics))
        return "\n".join(lines)

    def format(self) -> str:
        listing = self.format_listing()
        return (listing + "\n\n" if listing else "") + self.format_table()


def _format_row(label: str, metrics: Metrics) -> str:
    pct = metrics.as_percentages()
    return f"{label:<16}" + "".join(f"{pct[name]:>8.1f}" for name in METRIC_NAMES)


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
