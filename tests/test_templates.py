import random
import re
from itertools import product

import pytest

from tieupkit.discourse import (
    ConceptInstance,
    DiscourseSegment,
    TieUpCluster,
    build_registry,
    unify_company_references,
)
from tieupkit.errors import DanglingReferenceError, ParseError, TieupkitError
from tieupkit.pipeline import extract_document
from tieupkit.templates import (
    SLOT_PLAN,
    EntityObject,
    TemplateGraph,
    TieUpObject,
    generate_templates,
    parse_templates,
    serialize_templates,
)
from tieupkit.tokens import Document, Token

from conftest import DATA, bench_corpora, load_doc
from fuzzing import mutate
from oracles import graph_by_fields, serialize_templates_by_fields, slot_lists_by_lines
from oracles import parse_templates as parse_templates_before
from oracles import parse_templates_by_pattern


def doc_of(*sentences):
    built = []
    for si, pairs in enumerate(sentences):
        built.append(tuple(Token(s, p, si, ti) for ti, (s, p) in enumerate(pairs)))
    return Document("d", tuple(built))


def cluster(ids, sent_range=(0, 0), attached=()):
    seg = DiscourseSegment(sent_range[0], sent_range[1], frozenset(ids))
    return TieUpCluster(seg, list(attached), [])


class TestGeneration:
    def test_worked_passage_graph(self, resources):
        result = extract_document(load_doc("tanabe_merck"), resources)
        graph = result.graph
        assert len(graph.tieups) == 1
        assert len(graph.entities) == 2
        assert [e.name for e in graph.entities] == ["田辺製薬", "エー・メルク社"]
        (t,) = graph.tieups
        assert t.entity_refs == (1, 2)
        assert t.jv_company == ("合弁会社",)
        assert t.status == "EXISTING"

    def test_two_tieups_from_sequential_passage(self, resources):
        result = extract_document(load_doc("multi_tieup"), resources)
        graph = result.graph
        assert len(graph.tieups) == 2
        first, second = graph.tieups
        assert first.activities == ("販売",)
        assert second.activities == ()
        names = {e.object_id: e.name for e in graph.entities}
        assert [names[r] for r in first.entity_refs] == ["X社", "Y社"]
        assert [names[r] for r in second.entity_refs] == ["X社", "Z社"]

    def test_empty_cluster_list(self):
        doc = doc_of([("X社", "company")])
        reg = build_registry(doc=doc)
        graph = generate_templates(doc, [], reg)
        assert graph.tieups == () and graph.entities == ()

    def test_under_specified_cluster_flagged_not_dropped(self):
        doc = doc_of([("X社", "company"), ("は", "particle")])
        reg = unify_company_references(build_registry(doc=doc))
        graph = generate_templates(doc, [cluster({1})], reg)
        (t,) = graph.tieups
        assert t.entity_refs == (1,)
        assert t.warning == "UNDER-SPECIFIED"

    def test_aliases_collected_from_coreference_class(self):
        doc = doc_of(
            [("メルセデス・ベンツ", "company"), ("は", "particle")],
            [("ベンツ", "company"), ("と", "particle"), ("A社", "company")],
        )
        reg = unify_company_references(build_registry(doc=doc))
        graph = generate_templates(doc, [cluster({1, 3})], reg)
        benz = graph.entities[0]
        assert benz.name == "メルセデス・ベンツ"
        assert benz.aliases == ("ベンツ",)

    def test_dissolved_concept_flips_status(self):
        doc = doc_of([("X社", "company"), ("Y社", "company")])
        reg = unify_company_references(build_registry(doc=doc))
        dissolved = ConceptInstance(
            "DISSOLVED", 0, "concept-search", {}, subject_ids=frozenset({1})
        )
        graph = generate_templates(doc, [cluster({1, 2}, attached=[dissolved])], reg)
        assert graph.tieups[0].status == "DISSOLVED"


SAMPLE = TemplateGraph(
    "d",
    tieups=(
        TieUpObject(1, (1, 2), jv_company=("合弁会社",), activities=("開発",),
                    status="EXISTING"),
    ),
    entities=(
        EntityObject(1, "田辺製薬", (), "COMPANY"),
        EntityObject(2, "エー・メルク社", ("メルク",), "COMPANY"),
    ),
)


class TestSerialization:
    def test_block_layout(self):
        text = serialize_templates(SAMPLE)
        assert text.startswith("<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-2>\n")
        assert "\n\n<ENTITY-1> :=\n" in text
        assert text.endswith("\n")

    def test_round_trip(self):
        assert parse_templates(serialize_templates(SAMPLE), "d") == SAMPLE

    def test_worked_passage_round_trip(self, resources):
        graph = extract_document(load_doc("tanabe_merck"), resources).graph
        text = serialize_templates(graph)
        again = parse_templates(text, graph.doc_id)
        assert again == graph
        assert serialize_templates(again) == text

    def test_dangling_reference_refused(self):
        bad = TemplateGraph("d", tieups=(TieUpObject(1, (7,)),), entities=())
        with pytest.raises(DanglingReferenceError) as err:
            serialize_templates(bad)
        assert "ENTITY-7" in str(err.value)

    @pytest.mark.parametrize("obj, slot, value", [
        (EntityObject(2, "X社", aliases=("ベンツ", "メルセデス ベンツ")), "ALIASES", "メルセデス ベンツ"),
        (TieUpObject(1, jv_company=("合弁\u3000会社",)), "JV-COMPANY", "合弁\u3000会社"),
        (TieUpObject(1, activities=("開発", "販売 強化")), "ACTIVITY", "販売 強化"),
        (TieUpObject(1, activities=(" 販売",)), "ACTIVITY", " 販売"),
        (TieUpObject(1, activities=("開発", "")), "ACTIVITY", ""),
        (EntityObject(1, "X社\n  TYPE: PERSON"), "NAME", "X社\n  TYPE: PERSON"),
        (EntityObject(1, " X社"), "NAME", " X社"),
        (TieUpObject(1, status="EXISTING "), "STATUS", "EXISTING "),
    ], ids=["alias", "jv-ideographic-space", "activity", "leading-space", "empty",
            "name-line-break", "name-leading-space", "status-trailing-space"])
    def test_multi_valued_fill_that_would_not_read_back_refused(self, obj, slot, value):
        # Multi-valued slots are written space-separated and split on
        # whitespace when read, so such a value would come back as several
        # values, or as none.  A single-valued fill is read as its line
        # after the colon, stripped, so a line break or an outer space
        # would not come back.
        kind = "ENTITY" if isinstance(obj, EntityObject) else "TIE_UP"
        tieups, entities = ((), (obj,)) if kind == "ENTITY" else ((obj,), ())
        with pytest.raises(TieupkitError) as err:
            serialize_templates(TemplateGraph("d", tieups, entities))
        reason = (
            "is empty or holds whitespace, so it would not read back as one value"
            if SLOT_PLAN[type(obj)][slot][1] else
            "starts or ends with whitespace or holds a line break, so it would not read back "
            "as written"
        )
        assert str(err.value) == f"<{kind}-{obj.object_id}> {slot} value {value!r} {reason}"
        # A single-valued slot keeps inner whitespace through the round trip.
        spaced = TemplateGraph("d", (), (EntityObject(1, "メルセデス ベンツ", ("ベンツ",)),))
        assert parse_templates(serialize_templates(spaced), "d") == spaced

    def test_deterministic_output(self, resources):
        doc = load_doc("multi_tieup")
        first = serialize_templates(extract_document(doc, resources).graph)
        second = serialize_templates(extract_document(doc, resources).graph)
        assert first == second

    def test_random_graphs_round_trip(self):
        rng = random.Random(83)
        for _ in range(100):
            graph = random_graph(rng)
            assert parse_templates(serialize_templates(graph), graph.doc_id) == graph

    def test_layout_table_writes_and_reads_as_the_field_by_field_code(self):
        from test_scoring import wide_graph

        rng = random.Random(157)
        graphs = [random_graph(rng) for _ in range(300)]
        graphs += [wide_graph(rng, 8, 6, shared=rng.random() < 0.5) for _ in range(30)]
        # Every empty / None / present combination of every field.
        tieup_options = {
            "entity_refs": ((), (1,), (1, 2)),
            "jv_company": ((), ("合弁会社",), ("合弁会社", "新会社")),
            "activities": ((), ("開発",), ("開発", "製造")),
            "status": (None, "", "EXISTING"),
            "warning": (None, "", "UNDER-SPECIFIED"),
        }
        entity_options = {
            "name": (None, "", "X社"),
            "aliases": ((), ("ベンツ",), ("ベンツ", "メルク")),
            "entity_type": (None, "", "COMPANY"),
        }
        entity_fields = [dict(zip(entity_options, c)) for c in product(*entity_options.values())]
        for n, combo in enumerate(product(*tieup_options.values())):
            tieup = TieUpObject(1, **dict(zip(tieup_options, combo)))
            entity = EntityObject(1, **entity_fields[n % len(entity_fields)])
            graphs.append(TemplateGraph("d", (tieup,), (entity, EntityObject(2, "Y社"))))
        graphs.append(TemplateGraph("d"))
        for g in graphs:
            text = serialize_templates_by_fields(g)
            assert serialize_templates(g) == text
            assert parse_templates(text, "d") == graph_by_fields(slot_lists_by_lines(text), "d")

        dangling = TemplateGraph("d", (TieUpObject(1, (1,)), TieUpObject(2, (3, 4))),
                                 (EntityObject(1, "X社"),))
        for write in (serialize_templates, serialize_templates_by_fields):
            with pytest.raises(DanglingReferenceError, match="<ENTITY-3>"):
                write(dangling)

    def test_parse_rejects_slot_before_header(self):
        from tieupkit.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_templates("  NAME: X社\n", "d", path="bad.tmpl")
        assert err.value.line == 1

    def test_parse_rejects_bad_reference(self):
        from tieupkit.errors import ParseError

        text = "<TIE_UP-1> :=\n  ENTITIES: <PERSON-2>\n"
        with pytest.raises(ParseError):
            parse_templates(text, "d")

    def test_bad_reference_names_its_line(self):
        from tieupkit.errors import ParseError

        for ref in ("<PERSON-2>", "ENTITY-2", "<ENTITY-x>"):
            text = f"<ENTITY-1> :=\n  NAME: X社\n\n<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> {ref}\n"
            with pytest.raises(ParseError) as err:
                parse_templates(text, "d", path="bad.tmpl")
            assert err.value.line == 5
            assert "bad entity reference" in str(err.value)
            assert "bad.tmpl:line 5" in str(err.value)

    def test_unknown_object_type_names_its_line(self):
        from tieupkit.errors import ParseError

        text = "<ENTITY-1> :=\n  NAME: X社\n\n<PERSON-1> :=\n  NAME: 山田\n"
        with pytest.raises(ParseError) as err:
            parse_templates(text, "d", path="bad.tmpl")
        assert err.value.line == 4
        assert "unknown object type 'PERSON'" in str(err.value)

    def test_parse_rejects_duplicate_object(self):
        from tieupkit.errors import ParseError

        text = "<ENTITY-1> :=\n  NAME: X社\n\n<ENTITY-1> :=\n  NAME: Y社\n"
        with pytest.raises(ParseError) as err:
            parse_templates(text, "d")
        assert err.value.line == 4


    def test_parse_rejects_misspelled_slot(self):
        from tieupkit.errors import ParseError

        text = "<ENTITY-1> :=\n  NAEM: X社\n  TYPE: COMPANY\n"
        with pytest.raises(ParseError) as err:
            parse_templates(text, "d", path="bad.tmpl")
        assert err.value.line == 2
        assert "unknown ENTITY slot NAEM" in str(err.value)

    def test_parse_rejects_repeated_single_valued_slot(self):
        from tieupkit.errors import ParseError

        for slot, first, second in [
            ("STATUS", "EXISTING", "DISSOLVED"),
            ("WARNING", "UNDER-SPECIFIED", "UNDER-SPECIFIED"),
        ]:
            text = f"<TIE_UP-1> :=\n  {slot}: {first}\n  {slot}: {second}\n"
            with pytest.raises(ParseError) as err:
                parse_templates(text, "d", path="bad.tmpl")
            assert err.value.line == 3
            assert f"slot {slot} given twice" in str(err.value)
        for slot in ("NAME", "TYPE"):
            text = f"<ENTITY-1> :=\n  {slot}: X社\n  ALIASES: X\n  {slot}: Y社\n"
            with pytest.raises(ParseError) as err:
                parse_templates(text, "d")
            assert err.value.line == 4

    def test_parse_rejects_slot_of_the_other_object_type(self):
        from tieupkit.errors import ParseError

        text = "<ENTITY-1> :=\n  NAME: X社\n\n<ENTITY-2> :=\n  ENTITIES: <ENTITY-1>\n"
        with pytest.raises(ParseError) as err:
            parse_templates(text, "d", path="bad.tmpl")
        assert err.value.line == 5
        assert "unknown ENTITY slot ENTITIES" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_templates("<TIE_UP-1> :=\n  NAME: X社\n", "d")
        assert err.value.line == 2

    def test_multi_valued_slots_may_repeat(self):
        text = (
            "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1>\n  ENTITIES: <ENTITY-2>\n"
            "  ACTIVITY: 販売\n  ACTIVITY: 開発\n\n"
            "<ENTITY-1> :=\n  NAME: X社\n  ALIASES: X\n  ALIASES: エックス\n\n"
            "<ENTITY-2> :=\n  NAME: Y社\n"
        )
        graph = parse_templates(text, "d")
        assert graph.tieups[0].entity_refs == (1, 2)
        assert graph.tieups[0].activities == ("販売", "開発")
        assert graph.entities[0].aliases == ("X", "エックス")

    def test_parse_rejects_reference_to_undefined_entity(self):
        from tieupkit.errors import ParseError

        text = (
            "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1>\n  ENTITIES: <ENTITY-9>\n\n"
            "<ENTITY-1> :=\n  NAME: X社\n"
        )
        with pytest.raises(ParseError) as err:
            parse_templates(text, "d", path="bad.tmpl")
        assert err.value.line == 3
        assert "bad.tmpl:line 3: reference to undefined <ENTITY-9>" in str(err.value)

    def test_parse_rejects_reference_repeated_in_one_tieup(self):
        from tieupkit.errors import ParseError

        entities = "\n<ENTITY-1> :=\n  NAME: X社\n\n<ENTITY-2> :=\n  NAME: Y社\n"
        for entities_lines, line in [
            ("  ENTITIES: <ENTITY-1> <ENTITY-1>\n", 2),
            ("  ENTITIES: <ENTITY-1> <ENTITY-2>\n  ENTITIES: <ENTITY-1>\n", 3),
        ]:
            text = "<TIE_UP-1> :=\n" + entities_lines + entities
            with pytest.raises(ParseError) as err:
                parse_templates(text, "d", path="bad.tmpl")
            assert err.value.line == line
            assert "<ENTITY-1> repeated in <TIE_UP-1>" in str(err.value)
        # Two tie-ups may name the same entity.
        text = (
            "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-2>\n\n"
            "<TIE_UP-2> :=\n  ENTITIES: <ENTITY-1>\n" + entities
        )
        assert [t.entity_refs for t in parse_templates(text, "d").tieups] == [(1, 2), (1,)]

    def test_object_numbers_take_only_their_canonical_spelling(self):
        entities = "<ENTITY-1> :=\n  NAME: X社\n\n<ENTITY-2> :=\n  NAME: Y社\n"
        for digits in ("01", "00", "١", "٣", "１", "1٣"):
            written = f"<ENTITY-{digits}>"
            message = f"object number in {written} must be ASCII digits with no leading zero"
            # A definition: before or after the entity it would duplicate.
            for text, line in [
                (f"{written} :=\n  NAME: Z社\n\n" + entities, 1),
                (entities + f"\n{written} :=\n  NAME: Z社\n", 7),
            ]:
                with pytest.raises(ParseError) as err:
                    parse_templates(text, "d", path="bad.tmpl")
                assert err.value.line == line
                assert str(err.value) == f"bad.tmpl:line {line}: {message}"
            # A reference, alone or after a canonical one.
            for refs in (written, f"<ENTITY-2> {written}"):
                text = f"<TIE_UP-1> :=\n  ENTITIES: {refs}\n\n" + entities
                with pytest.raises(ParseError) as err:
                    parse_templates(text, "d", path="bad.tmpl")
                assert str(err.value) == f"bad.tmpl:line 2: {message}"
        # Other object types are held to the same spelling.
        with pytest.raises(ParseError, match="in <TIE_UP-01> must be ASCII digits"):
            parse_templates("<TIE_UP-01> :=\n  STATUS: EXISTING\n", "d")
        # Canonical spellings, zero and many digits included, still parse.
        text = (
            "<TIE_UP-10> :=\n  ENTITIES: <ENTITY-0> <ENTITY-120>\n\n"
            "<ENTITY-0> :=\n  NAME: X社\n\n<ENTITY-120> :=\n  NAME: Y社\n"
        )
        graph = parse_templates(text, "d")
        assert [t.object_id for t in graph.tieups] == [10]
        assert graph.tieups[0].entity_refs == (0, 120)
        assert [e.object_id for e in graph.entities] == [0, 120]

    def test_object_numbers_past_the_digit_limit_are_refused_with_line(self):
        # 5,000 digits is past int()'s own limit, which raised a ValueError.
        entities = "<ENTITY-1> :=\n  NAME: X社\n"
        for digits in ("1" * 19, "9" * 5000):
            message = f"object number in <ENTITY-{digits[:18]}...> has more than 18 digits"
            for text, line in [
                (f"<ENTITY-{digits}> :=\n  NAME: Z社\n", 1),
                (f"<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-{digits}>\n\n" + entities, 2),
            ]:
                with pytest.raises(ParseError) as err:
                    parse_templates(text, "d", path="bad.tmpl")
                assert str(err.value) == f"bad.tmpl:line {line}: {message}"
        graph = parse_templates(f"<ENTITY-{'9' * 18}> :=\n  NAME: Z社\n", "d")
        assert graph.entities[0].object_id == 10**18 - 1


# Characters and fragments the parser fuzz inserts: header, slot and
# reference syntax, whitespace that ``str.strip`` removes, characters
# ``str.splitlines`` breaks lines at, a digit that ``str.isdigit`` takes and
# ``\d`` does not (²), and slot names written with a space before the colon.
FUZZ_CHARS = "<>:-_ 0123456789AEINTYｰ社\t\n\r\x0b\x1c\x85\u3000\u2028\x00٣²"
FUZZ_PIECES = [
    "<ENTITY-1>", "<ENTITY-2> :=", "<TIE_UP-1> :=", "<ENTITY-01>", "<ENTITY-١>",
    "<FOO-1> :=", "  NAME: X社", "  NAME:", "  ENTITIES: <ENTITY-9>", ": v",
    "  STATUS: EXISTING", "  ALIASES: a a", "  TYPE : COMPANY", "<TIE_UP-1>:=",
    "<ENTITY-²>", "  NAME : X社", "  ENTITIES:<ENTITY-1>",
]
# About one mutated file in a thousand spells a number the parser refuses.
FUZZ_FILES = 12000


def parse_outcome(parse, text):
    try:
        return parse(text, "d", path="m.tmpl")
    except ParseError as err:
        return ("ParseError", str(err), err.line)


NUMBER_ERROR = re.compile(
    r"m\.tmpl:line \d+: object number in (<[A-Z_]+-(\d+)>) must be ASCII digits with no leading zero"
)


def test_parser_agrees_with_the_former_parser_on_mutated_files():
    # The former parser read any decimal digits as an object number; the
    # parser now refuses every spelling but ``str(number)``.  Where it does,
    # the error names a spelling that is on its line and is not canonical;
    # everywhere else the two parsers agree.
    rng = random.Random(163)
    texts = [
        p.read_text("utf-8")
        for d in ("golden", "score_key", "score_response")
        for p in sorted((DATA / d).glob("*.tmpl"))
    ]
    assert len(texts) == 8
    parsed = refused = 0
    for n in range(FUZZ_FILES):
        text = mutate(texts[n % len(texts)], rng, FUZZ_CHARS, FUZZ_PIECES)
        got = parse_outcome(parse_templates, text)
        number_error = not isinstance(got, TemplateGraph) and NUMBER_ERROR.fullmatch(got[1])
        if number_error:
            written, digits = number_error.groups()
            assert written in text.splitlines()[got[2] - 1], text
            assert str(int(digits)) != digits, text
            refused += 1
        else:
            assert got == parse_outcome(parse_templates_before, text), text
        parsed += isinstance(got, TemplateGraph)
    # Every outcome is exercised.
    assert parsed > 500 and FUZZ_FILES - parsed - refused > 1000 and refused >= 5


def test_parser_agrees_with_the_former_parser_on_benchmark_texts():
    # The fixture fuzz edits eight small files; the benchmark's answer keys
    # and expected outputs run to hundreds of objects per file.
    corpora = bench_corpora()
    texts = [
        text
        for make in corpora.WORKLOADS.values()
        for seed in (1, 2, 3)
        for d in make(seed).documents
        for text in (d.answer.text(), d.key.text())
    ]
    assert len(texts) == 2148
    assert max(text.count(":=") for text in texts) > 300
    for text in texts:
        assert parse_templates(text, "d") == parse_templates_before(text, "d")


# Header spellings at the edges of the parser's string tests: both sides of
# the small-number table's bound, zero, a leading zero, a non-ASCII digit
# and one ``\d`` does not take (²); other spacings; near misses of a known
# type, lowercase and full-width among them; an unknown type with a bad
# number; and a close that is not ``>``.  Then a header spaced by each
# whitespace character that can sit inside a line, where ``lstrip`` must
# drop exactly what ``\s*`` matches.
HEADER_CASES = [
    "<ENTITY-255> :=", "<ENTITY-256> :=", "<ENTITY-0> :=", "<ENTITY-01> :=", "<ENTITY-١> :=",
    "<ENTITY-²> :=", "<TIE_UP-1>:=", "<TIE_UP-1>  :=", "<Entity-1> :=", "<ENTITY7-1> :=",
    "<ENTITY--1> :=", "<ENTITY-1-2> :=", "<ENTITY-> :=", "<FOO-01> :=", "<ENTITY-1] :=",
    "<entity-1> :=", "<tie_up-1> :=", "<ＥＮＴＩＴＹ-1> :=", "<ＦＯＯ-1> :=", "<-1> :=",
    "<ENTITY-1> :=:=", "<ENTITY-1> : =", "<ENTITY-1>> :=",
] + [
    f"<ENTITY-1>{c}:=" for c in map(chr, range(0x110000))
    if c.isspace() and len(f"a{c}b".splitlines()) == 1
]
# Each header as a file's first line, after an object, and beside objects
# whose numbers it may repeat, named by references on both sides of the bound.
HEADER_CONTEXTS = [
    "{}\n  STATUS: EXISTING\n",
    "<ENTITY-7> :=\n  TYPE: COMPANY\n\n{}\n  NAME: X社\n",
    "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-255> <ENTITY-256> <ENTITY-0>\n\n{}\n  NAME: X社\n\n"
    "<ENTITY-255> :=\n  NAME: Y社\n\n<ENTITY-256> :=\n  NAME: Z社\n\n<ENTITY-0> :=\n  NAME: W社\n",
]


@pytest.mark.parametrize("header", HEADER_CASES)
def test_header_spellings_read_as_the_pattern_reads_them(header):
    for context in HEADER_CONTEXTS:
        text = context.format(header)
        assert parse_outcome(parse_templates, text) == parse_outcome(
            parse_templates_by_pattern, text
        ), text


@pytest.mark.parametrize("first, second", [
    ("<ENTITY-3> :=", "<ENTITY-3>:="),
    ("<ENTITY-3>:=", "<ENTITY-3> :="),
    ("<ENTITY-300>\t:=", "<ENTITY-300> :="),
], ids=["fast-then-pattern", "pattern-then-fast", "large-number"])
def test_duplicate_through_both_header_forms_refused(first, second):
    text = f"{first}\n  NAME: X社\n\n{second}\n  NAME: Y社\n"
    number = first[8:first.index(">")]
    expected = ("ParseError", f"m.tmpl:line 4: duplicate object <ENTITY-{number}>", 4)
    assert parse_outcome(parse_templates, text) == expected
    assert parse_outcome(parse_templates_by_pattern, text) == expected


UNDEFINED_ONCE = (
    "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-9>\n\n"  # line 2
    "<TIE_UP-2> :=\n  ENTITIES: <ENTITY-9>\n\n"  # line 5
    "<TIE_UP-3> :=\n  ENTITIES: <ENTITY-1>\n  ENTITIES: <ENTITY-9>\n\n"  # line 9
    "<ENTITY-1> :=\n  NAME: X社\n"
)
UNDEFINED_TWICE = (
    "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-300>\n\n"  # line 2
    "<TIE_UP-2> :=\n  ENTITIES: <ENTITY-8> <ENTITY-1>\n\n"  # line 5
    "<TIE_UP-3> :=\n  ENTITIES: <ENTITY-300> <ENTITY-8>\n\n"  # line 8
    "<ENTITY-1> :=\n  NAME: X社\n"
)


@pytest.mark.parametrize("text, message, line", [
    (UNDEFINED_ONCE, "reference to undefined <ENTITY-9>", 2),
    (UNDEFINED_TWICE, "reference to undefined <ENTITY-300>", 2),
    (UNDEFINED_TWICE.replace("<ENTITY-1> <ENTITY-300>", "<ENTITY-1>", 1),
     "reference to undefined <ENTITY-8>", 5),
], ids=["one-on-three-lines", "two", "two-first-dropped"])
def test_undefined_entity_reported_at_the_first_line_naming_any(text, message, line):
    # The first reference in file order to an entity the file never
    # defines is reported, however many lines name it or others.
    expected = ("ParseError", f"m.tmpl:line {line}: {message}", line)
    assert parse_outcome(parse_templates, text) == expected
    assert parse_outcome(parse_templates_by_pattern, text) == expected


def test_parser_agrees_with_the_pattern_parser_on_mutated_files():
    # The fixture fuzz above with the hand cases' headers and references
    # mixed in, against the parser the fast form replaced: every graph and
    # every error, message and line, the same.
    rng = random.Random(331)
    texts = [
        p.read_text("utf-8")
        for d in ("golden", "score_key", "score_response")
        for p in sorted((DATA / d).glob("*.tmpl"))
    ]
    pieces = FUZZ_PIECES + HEADER_CASES + ["  ENTITIES: <ENTITY-256> <ENTITY-0>", "<ENTITY-255>"]
    parsed = 0
    for n in range(3000):
        text = mutate(texts[n % len(texts)], rng, FUZZ_CHARS, pieces)
        got = parse_outcome(parse_templates, text)
        assert got == parse_outcome(parse_templates_by_pattern, text), text
        parsed += isinstance(got, TemplateGraph)
    assert 100 < parsed < 2900


def random_graph(rng, doc_id="d"):
    names = ["田辺製薬", "エー・メルク社", "X社", "Y社", "新日本製鉄", "ソニー", "IBM"]
    n_entities = rng.randint(0, 4)
    entities = []
    for i in range(1, n_entities + 1):
        aliases = tuple(rng.sample(["ベンツ", "新日鉄", "NTT", "メルク"], rng.randint(0, 2)))
        entities.append(
            EntityObject(i, rng.choice(names) + str(i), aliases, rng.choice(["COMPANY", "PERSON"]))
        )
    tieups = []
    for i in range(1, rng.randint(0, 3) + 1):
        if not entities:
            refs = ()
        else:
            refs = tuple(
                sorted(rng.sample(range(1, n_entities + 1), rng.randint(0, min(2, n_entities))))
            )
        tieups.append(
            TieUpObject(
                i,
                refs,
                jv_company=tuple(rng.sample(["合弁会社", "新会社"], rng.randint(0, 1))),
                activities=tuple(rng.sample(["販売", "開発", "製造"], rng.randint(0, 2))),
                status=rng.choice(["EXISTING", "DISSOLVED"]),
                warning="UNDER-SPECIFIED" if len(refs) < 2 else None,
            )
        )
    return TemplateGraph(doc_id, tuple(tieups), tuple(entities))
