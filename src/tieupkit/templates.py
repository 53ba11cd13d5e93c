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

import re
from typing import NamedTuple

from .discourse import CompanyRegistry, TieUpCluster
from .errors import DanglingReferenceError, ParseError, read_number
from .tokens import Document

STATUS_EXISTING = "EXISTING"
STATUS_DISSOLVED = "DISSOLVED"

WARNING_UNDER_SPECIFIED = "UNDER-SPECIFIED"

# ``\d`` takes any Unicode decimal digit; ``read_number`` then accepts only
# the spelling ``str`` gives the number.  Compiled by ``parse_templates``,
# its one user, so that importing the package compiles no pattern.
_HEADER_PATTERN = r"^<([A-Z_]+)-(\d+)>\s*:=\s*$"


class EntityObject(NamedTuple):
    object_id: int
    name: str = ""  # earliest surface of the coreference class
    aliases: tuple[str, ...] = ()
    entity_type: str | None = None


class TieUpObject(NamedTuple):
    object_id: int
    entity_refs: tuple[int, ...] = ()
    jv_company: tuple[str, ...] = ()
    activities: tuple[str, ...] = ()
    status: str | None = None
    warning: str | None = None


class TemplateGraph(NamedTuple):
    doc_id: str
    tieups: tuple[TieUpObject, ...] = ()
    entities: tuple[EntityObject, ...] = ()


# The one statement of the block layout, read by the writer, the parser and
# the scorer: per object class, its header type and, in output order, each
# slot's object field and whether it is multi-valued (a tuple, written
# space-separated; other slots hold one string and may appear once).
LAYOUT = {
    TieUpObject: ("TIE_UP", {
        "ENTITIES": ("entity_refs", True),  # entity numbers, as <ENTITY-n>
        "JV-COMPANY": ("jv_company", True),
        "ACTIVITY": ("activities", True),
        "STATUS": ("status", False),
        "WARNING": ("warning", False),
    }),
    EntityObject: ("ENTITY", {
        "NAME": ("name", False),
        "ALIASES": ("aliases", True),
        "TYPE": ("entity_type", False),
    }),
}
# By header type, as the former parser in ``tests/oracles.py`` reads it.
_BY_TYPE = {kind: (cls, slots) for cls, (kind, slots) in LAYOUT.items()}

# The same layout by position, for the parser and the scorer: per object
# class, each slot's field index and whether it is multi-valued.
SLOT_PLAN = {
    cls: {slot: (cls._fields.index(attr), multi) for slot, (attr, multi) in slots.items()}
    for cls, (_, slots) in LAYOUT.items()
}
# Per header type: the object class, its slot plan, and the defaults of the
# fields after the object number.
_PARSE_PLAN = {
    kind: (cls, SLOT_PLAN[cls], [cls._field_defaults[f] for f in cls._fields[1:]])
    for cls, (kind, _) in LAYOUT.items()
}


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
    # Each referenced id's later surfaces, in entry order, once each: a dict
    # keeps insertion order and tests membership without a scan.
    aliases: dict[int, dict[str, None]] = {eid: {} for eid in referenced}
    entries = reg.entries
    if aliases:
        for e in entries:
            found = aliases.get(e.entity_id)
            if (
                found is not None
                and e.index != e.entity_id
                and e.string != entries[e.entity_id - 1].string
            ):
                found[e.string] = None
    # ``tuple.__new__`` makes each object straight from its field values.
    new = tuple.__new__
    entities = []
    for eid in referenced:
        canonical = entries[eid - 1]
        entities.append(new(EntityObject, (
            entity_numbers[eid], canonical.string, tuple(aliases[eid]), canonical.pos.upper()
        )))

    tieups = []
    for n, cluster in enumerate(clusters, start=1):
        created: list[str] = []
        activities: list[str] = []
        dissolved = False
        for inst in cluster.attached:
            if inst.concept == "DISSOLVED":
                dissolved = True
            bindings = inst.bindings
            if bindings:
                value = bindings.get("created")
                if value and value not in created:
                    created.append(value)
                value = bindings.get("activity")
                if value and value not in activities:
                    activities.append(value)
        refs = tuple([entity_numbers[eid] for eid in sorted(cluster.tieup_ids)])
        tieups.append(new(TieUpObject, (
            n,
            refs,
            tuple(created),
            tuple(activities),
            STATUS_DISSOLVED if dissolved else STATUS_EXISTING,
            None if len(refs) >= 2 else WARNING_UNDER_SPECIFIED,
        )))
    return TemplateGraph(doc.doc_id, tuple(tieups), tuple(entities))


def serialize_templates(graph: TemplateGraph) -> str:
    """Deterministic block text; refuses graphs with dangling references."""
    entity_ids = {e.object_id for e in graph.entities}
    for t in graph.tieups:
        for ref in t.entity_refs:
            if ref not in entity_ids:
                raise DanglingReferenceError(f"<ENTITY-{ref}>")
    blocks: list[str] = []
    for obj in (*graph.tieups, *graph.entities):
        cls = type(obj)
        lines = [f"<{LAYOUT[cls][0]}-{obj[0]}> :="]
        for slot, (i, multi) in SLOT_PLAN[cls].items():
            value = obj[i]
            if value:
                if slot == "ENTITIES":
                    value = [f"<ENTITY-{r}>" for r in value]
                lines.append(f"  {slot}: " + (" ".join(value) if multi else value))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def parse_templates(text: str, doc_id: str = "", path: str | None = None) -> TemplateGraph:
    """Parse block text back into a graph; inverse of serialization.

    Every ENTITIES reference must name an entity the text defines, once per
    tie-up.
    """
    # re's cache holds the compiled pattern after the first call.
    match_header = re.compile(_HEADER_PATTERN).match
    # Per object class, each object's field values, in file order.
    built: dict[type, list[list]] = {TieUpObject: [], EntityObject: []}
    values: list | None = None  # the current object's
    plan: dict[str, tuple[int, bool]] = {}  # its slots; none before the first header
    seen_headers: set[tuple[str, int]] = set()
    references: list[tuple[int, int]] = []  # (entity number, line), in file order
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line[0] == "<":
            header = match_header(line)
            if header:
                kind, digits = header.groups()
                what = f"object number in <{kind}-{{}}>"
                object_id = read_number(digits, what, lineno, path)
                if kind not in _PARSE_PLAN:
                    raise ParseError(f"unknown object type {kind!r}", lineno, path)
                name = (kind, object_id)
                if name in seen_headers:
                    raise ParseError(f"duplicate object <{kind}-{object_id}>", lineno, path)
                seen_headers.add(name)
                cls, plan, defaults = _PARSE_PLAN[kind]
                values = [object_id, *defaults]
                built[cls].append(values)
                continue
        slot, sep, value = line.partition(":")
        value = value.strip()
        # A well-formed line names its slot exactly; every other line takes
        # the checks in full.
        found = plan.get(slot)
        if found is None or not value:
            if values is None:
                raise ParseError("slot line before any object header", lineno, path)
            slot = slot.strip()
            if not sep or not slot:
                raise ParseError(f"malformed slot line: {line!r}", lineno, path)
            if not value:
                raise ParseError(f"slot {slot} has no value", lineno, path)
            found = plan.get(slot)
            if found is None:
                raise ParseError(f"unknown {kind} slot {slot}", lineno, path)
        i, multi = found
        if not multi:
            # A stored value is never empty.
            if values[i]:
                raise ParseError(f"slot {slot} given twice", lineno, path)
            values[i] = value
        elif slot == "ENTITIES":
            refs = list(values[i])
            for ref in value.split():
                # ``isdecimal`` takes exactly the characters ``\d`` does.
                digits = ref[8:-1]
                if not (ref.startswith("<ENTITY-") and ref.endswith(">") and digits.isdecimal()):
                    raise ParseError(f"bad entity reference {ref!r}", lineno, path)
                number = read_number(digits, "object number in <ENTITY-{}>", lineno, path)
                if number in refs:
                    raise ParseError(
                        f"<ENTITY-{number}> repeated in <TIE_UP-{values[0]}>", lineno, path
                    )
                refs.append(number)
                references.append((number, lineno))
            values[i] = tuple(refs)
        else:
            values[i] += tuple(value.split())

    for number, lineno in references:
        if ("ENTITY", number) not in seen_headers:
            raise ParseError(f"reference to undefined <ENTITY-{number}>", lineno, path)

    # ``tuple.__new__`` makes each object straight from its field list.
    return TemplateGraph(
        doc_id,
        tuple([tuple.__new__(TieUpObject, fields) for fields in built[TieUpObject]]),
        tuple([tuple.__new__(EntityObject, fields) for fields in built[EntityObject]]),
    )
