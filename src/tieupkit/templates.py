"""Tie-up object graphs and their block-text serialization.

Output format, also used for scorer answer keys:

    <TIE_UP-1> :=
      ENTITIES: <ENTITY-1> <ENTITY-2>
      JV-COMPANY: 合弁会社
      ACTIVITY: 開発
      STATUS: EXISTING

    <ENTITY-1> :=
      NAME: 田辺製薬
      TYPE: COMPANY

One ``<TYPE-n> :=`` header per object, two-space-indented ``SLOT: value``
lines, object references written as ``<TYPE-n>``, values of multi-valued
slots space-separated, blank line between objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .discourse import CompanyRegistry, TieUpCluster
from .errors import DanglingReferenceError, ParseError
from .tokens import Document

STATUS_EXISTING = "EXISTING"
STATUS_DISSOLVED = "DISSOLVED"

WARNING_UNDER_SPECIFIED = "UNDER-SPECIFIED"

# Slots whose values split on whitespace; all others take the rest of the line.
_MULTI_VALUED = {"ENTITIES", "ALIASES", "ACTIVITY", "JV-COMPANY"}

_HEADER_RE = re.compile(r"^<([A-Z_]+)-(\d+)>\s*:=\s*$")
_REF_RE = re.compile(r"^<([A-Z_]+)-(\d+)>$")


@dataclass(frozen=True)
class EntityObject:
    object_id: int
    name: str  # earliest surface of the coreference class
    aliases: tuple[str, ...] = ()
    entity_type: str | None = None


@dataclass(frozen=True)
class TieUpObject:
    object_id: int
    entity_refs: tuple[int, ...]
    jv_company: tuple[str, ...] = ()
    activities: tuple[str, ...] = ()
    status: str | None = None
    warning: str | None = None


@dataclass(frozen=True)
class TemplateGraph:
    doc_id: str
    tieups: tuple[TieUpObject, ...] = ()
    entities: tuple[EntityObject, ...] = ()


def generate_templates(
    doc: Document, clusters: list[TieUpCluster], reg: CompanyRegistry
) -> TemplateGraph:
    """One tie-up object per cluster, one entity per referenced company id.

    Slot candidates come from the attached concept instances: a DISSOLVED
    concept flips the status, ``created`` bindings fill the joint-venture
    company, ``activity`` bindings fill activities.  Entity ids are assigned
    in first-mention order; a cluster with fewer than two entities is kept
    but flagged.
    """
    # Registry index order is first-mention order.
    referenced = sorted({eid for cluster in clusters for eid in cluster.tieup_ids})

    entity_numbers = {eid: n for n, eid in enumerate(referenced, start=1)}
    entities = []
    for eid in referenced:
        canonical = reg.entries[eid - 1]
        aliases = []
        for e in reg.entries:
            if e.entity_id == eid and e.index != eid and e.string != canonical.string:
                if e.string not in aliases:
                    aliases.append(e.string)
        entities.append(
            EntityObject(
                entity_numbers[eid], canonical.string, tuple(aliases), canonical.pos.upper()
            )
        )

    tieups = []
    for n, cluster in enumerate(clusters, start=1):
        created: list[str] = []
        activities: list[str] = []
        dissolved = False
        for inst in cluster.attached:
            if inst.concept == "DISSOLVED":
                dissolved = True
            value = inst.bindings.get("created")
            if value and value not in created:
                created.append(value)
            value = inst.bindings.get("activity")
            if value and value not in activities:
                activities.append(value)
        refs = tuple(entity_numbers[eid] for eid in sorted(cluster.tieup_ids))
        tieups.append(
            TieUpObject(
                object_id=n,
                entity_refs=refs,
                jv_company=tuple(created),
                activities=tuple(activities),
                status=STATUS_DISSOLVED if dissolved else STATUS_EXISTING,
                warning=None if len(refs) >= 2 else WARNING_UNDER_SPECIFIED,
            )
        )
    return TemplateGraph(doc.doc_id, tuple(tieups), tuple(entities))


def serialize_templates(graph: TemplateGraph) -> str:
    """Deterministic block text; refuses graphs with dangling references."""
    entity_ids = {e.object_id for e in graph.entities}
    blocks: list[str] = []
    for t in graph.tieups:
        for ref in t.entity_refs:
            if ref not in entity_ids:
                raise DanglingReferenceError(f"<ENTITY-{ref}>")
        lines = [f"<TIE_UP-{t.object_id}> :="]
        if t.entity_refs:
            lines.append("  ENTITIES: " + " ".join(f"<ENTITY-{r}>" for r in t.entity_refs))
        if t.jv_company:
            lines.append("  JV-COMPANY: " + " ".join(t.jv_company))
        if t.activities:
            lines.append("  ACTIVITY: " + " ".join(t.activities))
        if t.status:
            lines.append(f"  STATUS: {t.status}")
        if t.warning:
            lines.append(f"  WARNING: {t.warning}")
        blocks.append("\n".join(lines))
    for e in graph.entities:
        lines = [f"<ENTITY-{e.object_id}> :="]
        if e.name:
            lines.append(f"  NAME: {e.name}")
        if e.aliases:
            lines.append("  ALIASES: " + " ".join(e.aliases))
        if e.entity_type:
            lines.append(f"  TYPE: {e.entity_type}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def parse_templates(text: str, doc_id: str = "", path: str | None = None) -> TemplateGraph:
    """Parse block text back into a graph; inverse of serialization."""
    objects: list[tuple[str, int, dict[str, list[str]]]] = []
    current: tuple[str, int, dict[str, list[str]]] | None = None
    seen_headers: set[tuple[str, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        header = _HEADER_RE.match(line.strip())
        if header:
            kind_id = (header.group(1), int(header.group(2)))
            if kind_id in seen_headers:
                raise ParseError(
                    f"duplicate object <{kind_id[0]}-{kind_id[1]}>", lineno, path
                )
            seen_headers.add(kind_id)
            current = (*kind_id, {})
            objects.append(current)
            continue
        if current is None:
            raise ParseError("slot line before any object header", lineno, path)
        slot, sep, value = line.strip().partition(":")
        if not sep or not slot.strip():
            raise ParseError(f"malformed slot line: {line.strip()!r}", lineno, path)
        slot = slot.strip()
        value = value.strip()
        if not value:
            raise ParseError(f"slot {slot} has no value", lineno, path)
        values = value.split() if slot in _MULTI_VALUED else [value]
        current[2].setdefault(slot, []).extend(values)

    tieups = []
    entities = []
    for kind, object_id, slots in objects:
        if kind == "TIE_UP":
            refs = []
            for ref in slots.get("ENTITIES", []):
                m = _REF_RE.match(ref)
                if not m or m.group(1) != "ENTITY":
                    raise ParseError(f"bad entity reference {ref!r}", None, path)
                refs.append(int(m.group(2)))
            tieups.append(
                TieUpObject(
                    object_id=object_id,
                    entity_refs=tuple(refs),
                    jv_company=tuple(slots.get("JV-COMPANY", [])),
                    activities=tuple(slots.get("ACTIVITY", [])),
                    status=slots.get("STATUS", [None])[0],
                    warning=slots.get("WARNING", [None])[0],
                )
            )
        elif kind == "ENTITY":
            entities.append(
                EntityObject(
                    object_id=object_id,
                    name=slots.get("NAME", [""])[0],
                    aliases=tuple(slots.get("ALIASES", [])),
                    entity_type=slots.get("TYPE", [None])[0],
                )
            )
        else:
            raise ParseError(f"unknown object type {kind!r}", None, path)
    return TemplateGraph(doc_id, tuple(tieups), tuple(entities))
