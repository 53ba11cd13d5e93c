"""Record types: immutable records are ``Record`` tuples that compare by
value and behave as the ``typing.NamedTuple`` with the same fields would,
which a differential test checks class by class; mutable ones are plain
slotted classes, and importing the package loads no dataclass machinery
and no ``typing``.  Start-up (importing the package and ``tieupkit.cli``
and loading the packaged resources) does not load the scorer either: the
package's scoring names import ``tieupkit.scoring`` on first use and are
then its very objects."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tieupkit
from tieupkit.cli import RunConfig
from tieupkit.concepts import Keyword
from tieupkit.discourse import (
    CompanyRegistry,
    ConceptInstance,
    DiscourseSegment,
    build_registry,
    merge_concepts,
    unify_company_references,
)
from tieupkit.pipeline import extract_document
from tieupkit.records import Record
from tieupkit.scoring import ScoreCounts, ScoreReport, _slot_tables, align_and_count, score_documents
from tieupkit.tokens import Token, parse_document

from ablation import extract_without_discourse
from conftest import DATA, bench_corpora, load_doc
from oracles import namedtuple_twin

FIXTURES = sorted(p.stem for p in (DATA / "corpus").glob("*.tok"))

# Run in a fresh isolated interpreter without site imports, which could
# load a module first and hide it: prints the modules the import and
# resource loading added, then the types of the first metrics computed and
# whether ``fractions`` was loaded by then.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tieupkit, tieupkit.cli
tieupkit.cli.load_resources()
print(" ".join(sorted(set(sys.modules) - before)))
metrics = tieupkit.compute_metrics(tieupkit.ScoreCounts(3, 1, 1, 1, 1))
loaded = "fractions" in sys.modules
from fractions import Fraction
print(all(type(value) is Fraction for value in metrics[:7]), loaded)
"""


@pytest.fixture(scope="module")
def import_probe():
    src = str(Path(tieupkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, check=True,
    )
    added, metrics = proc.stdout.splitlines()
    return set(added.split()), metrics


def test_import_loads_no_dataclass_machinery(import_probe):
    added, _ = import_probe
    assert "tieupkit.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_start_up_loads_no_typing(import_probe):
    # Records are not typing.NamedTuples, and cli's Callable comes from collections.abc.
    added, _ = import_probe
    assert "typing" not in added


def test_start_up_loads_no_argument_parser(import_probe):
    # argparse, and the gettext it imports, load only when main parses flags.
    added, _ = import_probe
    assert not added & {"argparse", "gettext"}


def test_start_up_loads_no_scorer(import_probe):
    added, _ = import_probe
    assert "tieupkit.scoring" not in added


SCORING_NAMES = (
    "FillScore", "Metrics", "ScoreCounts", "align_and_count",
    "compute_metrics", "score_documents", "score_fills",
)

# Runs one first use of the scorer in a fresh interpreter, then prints
# whether the scorer was loaded before it, whether it bound ``found`` to
# the object named, and whether each scoring name is now the scorer's own.
FIRST_USE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tieupkit
loaded_before = "tieupkit.scoring" in sys.modules
exec(sys.argv[2])
scoring = sys.modules["tieupkit.scoring"]
print(loaded_before, found is eval(sys.argv[3]),
      all(getattr(tieupkit, name) is getattr(scoring, name) for name in sys.argv[4:]))
"""


@pytest.mark.parametrize("statement, expected", [
    ("from tieupkit import score_documents as found", "scoring.score_documents"),
    ("from tieupkit import scoring as found", "scoring"),
    ("found = tieupkit.Metrics", "scoring.Metrics"),
])
def test_scoring_names_load_the_scorer_on_first_use(statement, expected):
    src = str(Path(tieupkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", FIRST_USE_PROBE, src, statement, expected,
         *SCORING_NAMES],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False", "True", "True"]


def test_unknown_package_name_still_refused():
    with pytest.raises(AttributeError, match="no attribute 'score_everything'"):
        tieupkit.score_everything
    with pytest.raises(ImportError):
        from tieupkit import score_everything  # noqa: F401
    assert set(SCORING_NAMES) <= set(dir(tieupkit))


def test_packaged_resources_load_without_importlib_resources(import_probe):
    added, _ = import_probe
    assert not added & {"importlib.resources", "zipfile", "tempfile"}


def test_fractions_load_on_first_metrics(import_probe):
    # Extraction never builds a Fraction, so start-up does not pay for one.
    added, metrics = import_probe
    assert not added & {"fractions", "decimal"}
    assert metrics == "True True"


@pytest.fixture(scope="module")
def records(resources):
    """One instance of every immutable record type."""
    result = extract_document(load_doc("tanabe_merck"), resources)
    graph = result.graph
    report = score_documents([("d", graph, graph)])
    instances = {
        "Token": result.document.sentences[0][0],
        "Document": result.document,
        "ConceptHit": result.hits[0],
        "Keyword": result.hits[0].keyword,
        "TopicState": result.topics,
        "PronounReference": result.pronouns[0],
        "RegistryEntry": result.registry.entries[0],
        "ConceptInstance": result.instances[0],
        "TieUpCluster": result.clusters[0],
        "DiscourseSegment": result.segments[0],
        "PatternMatch": result.winners[0],
        "ScoreCounts": report.documents[0].counts,
        "Metrics": report.documents[0].metrics,
        "DocumentScore": report.documents[0],
        "EntityObject": graph.entities[0],
        "TieUpObject": graph.tieups[0],
        "TemplateGraph": graph,
        "ExtractionResources": resources,
        "ExtractionResult": result,
        "RunConfig": RunConfig(Path("in"), Path("out")),
    }
    for name, record in instances.items():
        assert type(record).__name__ == name
    return instances


def test_immutable_records_refuse_assignment(records):
    for name, record in records.items():
        assert not hasattr(record, "__dict__"), name
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_replace_keeps_the_record_type(records):
    inst = records["ConceptInstance"]
    changed = inst._replace(subject_ids=frozenset({99}))
    assert type(changed) is ConceptInstance
    assert changed.subject_ids == frozenset({99})
    assert changed.bindings is inst.bindings
    assert changed[:3] == inst[:3]


def test_checked_records_still_refuse_empty_text():
    with pytest.raises(ValueError, match="token surface must be non-empty"):
        Token("", "noun")
    with pytest.raises(ValueError, match="empty keyword"):
        Keyword("")
    with pytest.raises(ValueError, match="empty keyword"):
        Keyword.parse("><")
    assert Token("X社", "company", 1, 2) == Token(surface="X社", pos="company",
                                                   sent_index=1, tok_index=2)
    assert repr(Token("X社", "company")) == (
        "Token(surface='X社', pos='company', sent_index=0, tok_index=0)"
    )
    assert str(Keyword.parse(">提携<")) == ">提携<"


def test_defaults_are_never_shared():
    assert ScoreReport().documents is not ScoreReport().documents
    assert CompanyRegistry().entries is not CompanyRegistry().entries


def test_merging_into_default_built_clusters_stays_apart():
    seg = DiscourseSegment(0, 1, frozenset({1, 2}))
    attached = ConceptInstance("X", 0, "pattern", {}, subject_ids=frozenset({1}))
    orphan = ConceptInstance("Y", 1, "pattern", {}, subject_ids=frozenset({3}))
    first = merge_concepts(seg, [attached, orphan])
    second = merge_concepts(seg, [])
    assert first.attached == [attached] and first.diagnostics == [orphan]
    assert second.attached == [] and second.diagnostics == []
    assert first.attached is not second.attached
    assert first.attached is not first.diagnostics
    assert first.tieup_ids is seg.tieup_ids


@pytest.mark.parametrize("extract", [extract_document, extract_without_discourse])
def test_extracting_twice_gives_equal_results(resources, extract):
    news = bench_corpora().news_corpus(1).documents[::10]
    docs = [load_doc(name) for name in FIXTURES]
    docs += [parse_document(d.tokens, d.doc_id) for d in news]
    for doc in docs:
        assert extract(doc, resources) == extract(doc, resources), doc.doc_id


def test_registries_compare_entries_by_value():
    doc = load_doc("abbrev_sale")
    first, second = build_registry(doc), build_registry(doc)
    assert first == second
    before = first.entries[:]
    unify_company_references(first)
    assert first != second
    # Unification replaces entries: one fetched before keeps its old id.
    assert second.entries == before
    changed = [i for i, (old, new) in enumerate(zip(before, first.entries)) if old != new]
    assert changed
    for i in changed:
        assert before[i].entity_id == before[i].index != first.entries[i].entity_id
        assert before[i]._replace(entity_id=first.entries[i].entity_id) == first.entries[i]


def test_self_alignment_counts_every_fill_correct(resources):
    for name in FIXTURES:
        graph = extract_document(load_doc(name), resources).graph
        n = sum(sum(map(len, table)) for objs in (graph.entities, graph.tieups)
                for table in _slot_tables(objs, None))
        assert align_and_count(graph, graph) == ScoreCounts(n, 0, 0, 0, 0), name


def test_counts_add_element_wise():
    total = ScoreCounts(1, 2, 3, 4, 5) + ScoreCounts(1, 1, 1, 1, 1)
    assert total == ScoreCounts(2, 3, 4, 5, 6)
    assert type(total) is ScoreCounts
    assert ScoreCounts() == (0, 0, 0, 0, 0)


def test_reprs_name_their_fields(records):
    assert repr(ScoreCounts(1, 2, 3, 4, 5)) == "ScoreCounts(cor=1, par=2, inc=3, mis=4, spu=5)"
    assert repr(records["RegistryEntry"]) == (
        "RegistryEntry(index=1, string='田辺製薬', pos='company', eg=False, "
        "entity_id=1, position=(0, 0), alias_of=None)"
    )


def test_equality_with_another_type_is_left_to_it():
    from tieupkit.discourse import CompanyRegistry
    from tieupkit.patterns import ElementKind, PatternElement

    skip = PatternElement(ElementKind.SKIP, name="@SKIP")
    reg = CompanyRegistry()
    for obj in (skip, reg):
        assert obj.__eq__("@SKIP") is NotImplemented
        assert obj != "@SKIP" and obj != ()
    assert skip == PatternElement(ElementKind.SKIP, name="@SKIP")
    assert reg == CompanyRegistry()


# Every record class the package defines; the test module has imported
# every package module, the scorer included.
RECORD_CLASSES = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("tieupkit.")),
    key=lambda cls: cls.__name__,
)


def test_every_tuple_class_of_the_package_is_a_record():
    defined = {
        obj
        for name, module in sys.modules.items() if name.startswith("tieupkit.")
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == name
    }
    assert defined - {Record} == set(RECORD_CLASSES)
    assert len(RECORD_CLASSES) == 23


def _outcome(build):
    """What a call returns, or the type of the exception it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_behave_as_their_named_tuple_twins(cls):
    twin = namedtuple_twin(cls)
    fields = cls._fields
    assert fields == twin._fields
    assert cls.__match_args__ == twin.__match_args__ == fields
    assert cls._field_defaults == twin._field_defaults
    values = [f"{name}-value" for name in fields]
    required = len(fields) - len(cls._field_defaults)

    # Positional with every count of defaults filled, by keyword, and mixed.
    calls = [(values[:n], {}) for n in range(required, len(fields) + 1)]
    calls.append(([], dict(zip(fields, values))))
    calls.append((values[:1], dict(zip(fields[1:], values[1:]))))
    if required < len(fields):
        calls.append(([], {**dict(zip(fields[:required], values)), fields[-1]: "last"}))
    for args, kwargs in calls:
        record, reference = cls(*args, **kwargs), twin(*args, **kwargs)
        assert type(record) is cls and not hasattr(record, "__dict__")
        assert record == reference and tuple(record) == tuple(reference)
        if cls.__hash__ is tuple.__hash__:  # PatternMatch hashes its rule's name
            assert hash(record) == hash(reference)
        assert repr(record) == repr(reference)
        assert record._asdict() == reference._asdict()
        for name in fields:
            assert getattr(record, name) == getattr(reference, name)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert type(again) is cls and again == record

    # A missing, extra, unknown or repeated argument.
    bad = [(values + ["extra"], {}), (values, {"no_such_field": 1}),
           (values[:required], {"no_such_field": 1})]
    if required:
        bad.append((values[:required - 1], {}))
    if fields:
        bad.append((values, {fields[0]: "again"}))
    for args, kwargs in bad:
        got = _outcome(lambda: cls(*args, **kwargs))
        assert got is _outcome(lambda: twin(*args, **kwargs)) is TypeError, (args, kwargs)

    record, reference = cls(*values), twin(*values)
    made = cls._make(values)
    assert type(made) is cls and made == twin._make(values)
    assert _outcome(lambda: cls._make(values[:-1])) is _outcome(
        lambda: twin._make(values[:-1])) is TypeError
    for name in fields:
        changed = record._replace(**{name: "changed"})
        assert type(changed) is cls and changed == reference._replace(**{name: "changed"})
    assert _outcome(lambda: record._replace(no_such_field=1)) is _outcome(
        lambda: reference._replace(no_such_field=1)) is ValueError


def test_field_without_default_after_one_with_refused():
    # As namedtuple refuses it: positional defaults could not fill the gap.
    with pytest.raises(TypeError, match="field 'b' without a default follows a field with one"):
        class Gap(Record):
            __slots__ = ()
            a: int = 0
            b: int
