"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest bench -q
"""

import json
import random
from dataclasses import replace

import pytest

import run

run.import_package()

import corpora  # noqa: E402
import tracing  # noqa: E402
from tieupkit import discourse, pipeline, tokens  # noqa: E402
from tieupkit.cli import load_resources  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))

SMALL = {
    "news": lambda seed: corpora.news_corpus(seed, docs=18),
    "long_sentence": lambda seed: corpora.long_sentence_corpus(seed, docs=4, tokens=(12, 40)),
    "registry": lambda seed: corpora.registry_corpus(seed, docs=2, sentences=(20, 40)),
}


@pytest.fixture(scope="module")
def resources():
    return load_resources()


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes(workload):
    make = SMALL[workload]
    assert make(5).digest() == make(5).digest()
    assert make(5).digest() != make(6).digest()


def test_full_size_generators_are_seeded():
    for make in corpora.WORKLOADS.values():
        assert make(1).digest() == make(1).digest()


def test_check_mentions():
    corpora.check_mentions([("アイウエ社", "a"), ("アウエ", "a"), ("カキク社", "b")])
    with pytest.raises(ValueError, match="subsequence of"):
        corpora.check_mentions([("アイウエ社", "a"), ("アエ社", "b")])
    with pytest.raises(ValueError, match="not a subsequence"):
        corpora.check_mentions([("アイウエ社", "a"), ("カキ", "a")])
    with pytest.raises(ValueError, match="subsequence of"):
        corpora.check_mentions([("日本", None), ("日本", None)])


@pytest.mark.parametrize("fixture", sorted(corpora._NEWS_FIXTURES))
def test_news_mentions_are_the_package_registry(fixture, resources):
    """The declared mentions are what name recognition actually registers,
    and unification groups them as planned."""
    spec = corpora._NEWS_FIXTURES[fixture]
    names = corpora._fixture_names(random.Random(fixture), spec)
    text = corpora.token_text("d", corpora._fixture_sentences(spec, names))
    doc = tokens.group_segments(
        tokens.recognize_names(tokens.parse_document(text), resources.designators))
    reg = discourse.unify_company_references(discourse.build_registry(doc=doc))
    mentions = [(s.format(**names), c) for s, c in spec["mentions"]]
    assert [e.string for e in reg.entries] == [s for s, _ in mentions]
    planned = {}
    for entry, (_, company) in zip(reg.entries, mentions):
        key = company if company is not None else entry.index
        assert planned.setdefault(key, entry.entity_id) == entry.entity_id


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_known_answers_hold(workload, tmp_path):
    corpus = SMALL[workload](11)
    runner = run.Runner(corpus, tmp_path)
    checks = run.Checks()
    run.check_rounds(checks, runner, [runner.round(0)])
    assert checks.failed == 0
    assert checks.attempted == 3 * len(corpus.documents)


def test_cli_batches_cover_every_document_once(tmp_path):
    corpus = corpora.news_corpus(3, docs=45)
    runner = run.Runner(corpus, tmp_path)
    assert [len(b) for b in runner.batches] == [20, 20, 5]
    assert [d for b in runner.batches for d in b] == list(corpus.documents)


def test_medians_scale_each_round_by_its_reference():
    """A round on a host running at half speed reads like one at full speed."""
    ref = run.REFERENCE_SECONDS
    fast = ([(1.0, 0.5, "x"), (2.0, 1.0, "y")], [], [], [ref, ref, 3 * ref])
    slow = ([(2.0, 1.0, "x"), (None, None, None)], [], [], [2 * ref])
    assert run.medians([fast, slow], 0) == [1.0, 2.0]
    assert run.medians([fast, slow], 0, 1) == [0.5, 1.0]
    assert run.medians([fast, slow], 0, scaled=False) == [1.5, 2.0]


def test_perturbations_cover_every_count():
    corpus = corpora.news_corpus(2, docs=30)
    kinds = {d.perturbation for d in corpus.documents}
    assert kinds == set(corpora.PERTURBATIONS)
    for d in corpus.documents:
        cor, par, inc, mis, spu = d.counts
        assert (par, inc, mis, spu).count(1) == (d.perturbation != "none")


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _run(monkeypatch, corpus, trace):
    monkeypatch.setitem(corpora.WORKLOADS, "news", lambda seed: corpus)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    return run.main(["--workload", "news", "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)])


def test_end_to_end_reports_every_metric(monkeypatch, capsys):
    assert _run(monkeypatch, SMALL["news"](3), 0) == 0
    record, result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())
    assert record["corpus_sha256"] == SMALL["news"](3).digest()
    assert record["failed_frac"] == 0


def test_corrupted_answer_fails(monkeypatch, capsys):
    corpus = SMALL["news"](3)
    docs = list(corpus.documents)
    wrong = replace(docs[0].answer, entities=docs[0].answer.entities[:-1])
    docs[0] = replace(docs[0], answer=wrong)
    assert _run(monkeypatch, replace(corpus, documents=tuple(docs)), 0) == 1
    _, result = _result(capsys)
    assert not result["correct"] and result["failed"] >= 2  # extract and CLI


def test_corrupted_counts_fail(monkeypatch, capsys):
    corpus = SMALL["registry"](3)
    docs = list(corpus.documents)
    cor, par, inc, mis, spu = docs[0].counts
    docs[0] = replace(docs[0], counts=(cor - 1, par + 1, inc, mis, spu))
    assert _run(monkeypatch, replace(corpus, documents=tuple(docs)), 0) == 1
    _, result = _result(capsys)
    assert not result["correct"] and result["failed"] >= 1


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    originals = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    assert _run(monkeypatch, SMALL["registry"](4), 1) == 0
    record, result = _result(capsys)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS] == originals
    assert all(record["calls"][t] > 0 for t in record["calls"])
    trace_file = run.ROOT / record["trace_file"]
    spans = [json.loads(line) for line in trace_file.read_text("utf-8").splitlines()]
    trace_file.unlink()
    assert len(spans) == record["spans"]
    assert {s["name"] for s in spans} >= {"pipeline.extract", "discourse.unify", "cli.main"}


def test_trace_fails_when_a_stage_is_bound_by_name(monkeypatch, capsys):
    """A pipeline that stops calling through the module attribute is caught."""

    class Tokens:
        recognize_names = staticmethod(tokens.recognize_names)
        group_segments = staticmethod(lambda doc: tokens.group_segments(doc))

    monkeypatch.setattr(pipeline, "tokens_mod", Tokens)
    with pytest.raises(SystemExit, match="tokens.recognize_names"):
        _run(monkeypatch, SMALL["news"](3), 1)


def test_only_a_checkout_with_sources_runs(tmp_path):
    import subprocess
    import sys

    (tmp_path / "bench").mkdir()
    for path in run.BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "news", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no tieupkit package" in proc.stderr
