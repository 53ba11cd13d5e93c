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
slots space-separated, blank line between objects.  A header may hold
any whitespace between its ``>`` and ``:=``.  The reader takes headers by
string tests alone: no part of this module uses a regular expression.
"""

from .discourse import CompanyRegistry, TieUpCluster
from .errors import _SMALL_NUMBERS, DanglingReferenceError, ParseError, TieupkitError, read_number
from .records import Record
from .tokens import Document

STATUS_EXISTING = "EXISTING"
STATUS_DISSOLVED = "DISSOLVED"

WARNING_UNDER_SPECIFIED = "UNDER-SPECIFIED"

# The letters of a header type name, known to the layout or not.
_TYPE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_"


class EntityObject(Record):
    __slots__ = ()

    object_id: int
    name: str = ""  # earliest surface of the coreference class
    aliases: tuple[str, ...] = ()
    entity_type: str | None = None


class TieUpObject(Record):
    __slots__ = ()

    object_id: int
    entity_refs: tuple[int, ...] = ()
    jv_company: tuple[str, ...] = ()
    activities: tuple[str, ...] = ()
    status: str | None = None
    warning: str | None = None


class TemplateGraph(Record):
    __slots__ = ()

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
# Per header type: its slot plan, the other fields' defaults, and how an error names its number.
_PARSE_PLAN = {
    kind: (SLOT_PLAN[cls], [cls._field_defaults[f] for f in cls._fields[1:]],
           f"object number in <{kind}-{{}}>")
    for cls, (kind, _) in LAYOUT.items()
}
# Entity references numbered below 256, by their one accepted spelling.
_SMALL_REFS = {f"<ENTITY-{digits}>": n for digits, n in _SMALL_NUMBERS.items()}


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
    """Deterministic block text; refuses dangling references and fills that would not read back."""
    entity_ids = {e.object_id for e in graph.entities}
    for t in graph.tieups:
        for ref in t.entity_refs:
            if ref not in entity_ids:
                raise DanglingReferenceError(f"<ENTITY-{ref}>")
    blocks: list[str] = []
    for obj in (*graph.tieups, *graph.entities):
        kind = LAYOUT[type(obj)][0]
        plan, defaults, _ = _PARSE_PLAN[kind]
        name = f"<{kind}-{obj[0]}>"
        lines = [name + " :="]
        for slot, (i, multi) in plan.items():
            value = obj[i]
            # An empty fill is not written, so it reads back as its field's
            # default: a "" whose default is not "" goes on to be refused.
            if value or value == "" != defaults[i - 1]:
                if slot == "ENTITIES":
                    value = " ".join([f"<ENTITY-{r}>" for r in value])
                elif multi:
                    words, value = value, " ".join(value)
                    if value.split() != list(words):
                        word = next(w for w in words if w.split() != [w])
                        raise TieupkitError(f"{name} {slot} value {word!r} is empty or holds "
                                            "whitespace, so it would not read back as one value")
                elif value.strip().splitlines() != [value]:
                    raise TieupkitError(f"{name} {slot} value {value!r} starts or ends with "
                                        "whitespace or holds a line break, so it would not "
                                        "read back as written")
                lines.append(f"  {slot}: {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def parse_templates(text: str, doc_id: str = "", path: str | None = None) -> TemplateGraph:
    """Parse block text back into a graph; inverse of serialization.

    Every ENTITIES reference must name an entity the text defines, once per
    tie-up.
    """
    # Per header type, object number -> field values, in file order.
    built: dict[str, dict[int, list]] = {kind: {} for kind in _PARSE_PLAN}
    values: list | None = None  # the current object's
    plan: dict[str, tuple[int, bool]] = {}  # its slots; none before the first header
    references: dict[int, int] = {}  # entity number -> first line naming it
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line[0] == "<":
            # ``<TYPE-n>``, any whitespace, ``:=``; the number may be any run
            # of decimal digits and ``read_number`` judges its spelling.
            head, _, tail = line.partition(">")
            name, _, digits = head[1:].rpartition("-")
            if tail.lstrip() == ":=" and digits.isdecimal() and (
                name in _PARSE_PLAN or name and not name.strip(_TYPE_LETTERS)
            ):
                if name not in _PARSE_PLAN:  # a bad number is reported first
                    read_number(digits, f"object number in <{name}-{{}}>", lineno, path)
                    raise ParseError(f"unknown object type {name!r}", lineno, path)
                kind = name
                plan, defaults, what = _PARSE_PLAN[kind]
                object_id = read_number(digits, what, lineno, path)
                objects = built[kind]
                if object_id in objects:
                    raise ParseError(f"duplicate object <{kind}-{object_id}>", lineno, path)
                objects[object_id] = values = [object_id, *defaults]
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
                number = _SMALL_REFS.get(ref)
                if number is None:
                    digits = ref[8:-1]
                    if ref[:8] != "<ENTITY-" or ref[-1] != ">" or not digits.isdecimal():
                        raise ParseError(f"bad entity reference {ref!r}", lineno, path)
                    number = read_number(digits, "object number in <ENTITY-{}>", lineno, path)
                if number in refs:
                    raise ParseError(
                        f"<ENTITY-{number}> repeated in <TIE_UP-{values[0]}>", lineno, path
                    )
                refs.append(number)
                if number not in references:
                    references[number] = lineno
            values[i] = tuple(refs)
        else:
            values[i] += tuple(value.split())

    entities = built["ENTITY"]
    for number, lineno in references.items():
        if number not in entities:
            raise ParseError(f"reference to undefined <ENTITY-{number}>", lineno, path)

    # ``tuple.__new__`` makes each object straight from its field list.
    return TemplateGraph(
        doc_id,
        tuple([tuple.__new__(TieUpObject, fields) for fields in built["TIE_UP"].values()]),
        tuple([tuple.__new__(EntityObject, fields) for fields in entities.values()]),
    )
