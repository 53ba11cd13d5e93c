"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output summary) and enforces its stated time budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from tieupkit.discourse import build_registry, lcs_length, unify_company_references
from tieupkit.patterns import match_sentence
from tieupkit.pipeline import extract_document
from tieupkit.scoring import align_and_count, compute_metrics, f_measure, round_percent
from tieupkit.scoring import ScoreCounts
from tieupkit.templates import serialize_templates
from tieupkit.tokens import Document, Token

from conftest import DATA, load_doc
from oracles import enumerate_matches, lcs_by_enumeration, match_set
from test_patterns import random_rule, random_tokens
from test_templates import random_graph


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_lcs_exactness():
    with criterion("1 LCS exactness", 1.0):
        assert lcs_length("abacbba", "bcda") == 3
        rng = random.Random(202)
        alphabet = "abcde日航"
        for _ in range(1000):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 10)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 10)))
            assert lcs_length(a, b) == lcs_by_enumeration(a, b)


def test_criterion_2_metric_reproduction():
    with criterion("2 metric reproduction", 1.0):
        reported = round_percent(f_measure(Fraction(60, 100), Fraction(68, 100)))
        assert abs(reported - 63.8) <= 0.05
        rng = random.Random(203)
        for _ in range(10_000):
            c = ScoreCounts(*[rng.randint(0, 40) for _ in range(5)])
            m = compute_metrics(c)
            half = Fraction(c.cor) + Fraction(c.par, 2)
            if c.possible:
                assert m.rec * c.possible == half
            if c.actual:
                assert m.pre * c.actual == half
            if m.rec + m.pre > 0:
                assert f_measure(m.rec, m.pre) == f_measure(m.pre, m.rec)
                assert min(m.rec, m.pre) <= m.pr <= max(m.rec, m.pre)
            bumped = compute_metrics(ScoreCounts(c.cor, c.par, c.inc, c.mis, c.spu + 1))
            # Strict growth until the ratio saturates at 1.
            assert bumped.err > m.err or m.err == 1 or "ERR" in m.undefined
            assert bumped.ovg > m.ovg or m.ovg == 1 or "OVG" in m.undefined
            if c.actual and (c.cor or c.par):
                assert bumped.pre < m.pre


def test_criterion_3_abbreviation_unification():
    with criterion("3 abbreviation unification", 1.0):
        def registry_of(items):
            return build_registry(
                Document("d", (tuple(Token(s, p, 0, n) for n, (s, p) in enumerate(items)),))
            )

        def ids_of(*items):
            reg = registry_of(items)
            unify_company_references(reg)
            return [e.entity_id for e in reg.entries]

        assert ids_of(("メルセデス・ベンツ", "company"), ("ベンツ", "unknown")) == [1, 1]
        assert ids_of(("日本電信電話 (NTT)", "company"), ("NTT", "unknown")) == [1, 1, 1]
        assert ids_of(("アメリカン・エクスプレス社", "company"), ("ア社", "unknown")) == [1, 1]
        assert ids_of(("新日本製鉄", "company"), ("新日鉄", "unknown")) == [1, 1]
        assert ids_of(("X商事", "company"), ("Y銀行", "company")) == [1, 2]

        rng = random.Random(205)
        pool = ["メルセデス・ベンツ", "ベンツ", "新日鉄", "新日本製鉄", "NTT (日本)",
                "IBM", "ab", "aB", "日本航空", "日航", "ア社", "X商事", "Y銀行"]
        tags = ["company", "unknown", "person", "place"]
        for _ in range(1000):
            reg = registry_of(
                [(rng.choice(pool), rng.choice(tags)) for _ in range(rng.randint(0, 7))]
            )
            unify_company_references(reg)
            once = [e.entity_id for e in reg.entries]
            unify_company_references(reg)
            assert [e.entity_id for e in reg.entries] == once
            assert all(e.entity_id <= e.index for e in reg.entries)


def test_criterion_4_pronoun_resolution(resources):
    with criterion("4 pronoun resolution", 1.0):
        def referents(doc_name, surface):
            result = extract_document(load_doc(doc_name), resources)
            refs = [p for p in result.pronouns if p.surface == surface]
            assert refs, f"{surface} not found in {doc_name}"
            return {
                result.registry.canonical_string(i) for i in refs[0].referent_ids
            }

        assert referents("pronouns_a", "同社") == {"Y社"}
        assert referents("pronouns_a", "自社") == {"X社"}
        assert referents("pronouns_b", "同社") == {"X社"}
        assert referents("tanabe_merck", "両社") == {"田辺製薬", "エー・メルク社"}


def test_criterion_5_end_to_end_merging(resources):
    with criterion("5 end-to-end merging", 1.0):
        result = extract_document(load_doc("tanabe_merck"), resources)
        graph = result.graph
        assert len(graph.tieups) == 1
        assert [e.name for e in graph.entities] == ["田辺製薬", "エー・メルク社"]
        assert graph.tieups[0].jv_company == ("合弁会社",)
        golden = (DATA / "golden" / "tanabe_merck.tmpl").read_text("utf-8")
        assert serialize_templates(graph) == golden

        result = extract_document(load_doc("multi_tieup"), resources)
        graph = result.graph
        assert len(graph.tieups) == 2
        assert graph.tieups[0].activities == ("販売",)
        assert graph.tieups[1].activities == ()
        golden = (DATA / "golden" / "multi_tieup.tmpl").read_text("utf-8")
        assert serialize_templates(graph) == golden


def test_criterion_6_matcher_soundness():
    with criterion("6 matcher soundness", 30.0):
        vocab = ["提携", "設立", "開発", "は", "が", "と", "X社", "合弁会社"]
        tags = ["noun", "verbal-nominal", "particle", "company", "verb"]
        rng = random.Random(206)
        rules = [random_rule(rng, vocab, tags) for _ in range(50)]
        for _ in range(500):
            s = random_tokens(rng, vocab, tags)
            for rule in rules:
                want = {(rule.name, spans) for spans in enumerate_matches(s, rule)}
                with_filter = match_set(match_sentence(s, [rule], use_prefilter=True))
                without = match_set(match_sentence(s, [rule], use_prefilter=False))
                assert with_filter == without == want


def test_criterion_7_best_match_heuristics():
    with criterion("7 best-match heuristics", 1.0):
        import test_patterns as tp

        suite = tp.TestSelectBest()
        suite.test_rule1_more_company_fills_wins()
        suite.test_rule2_shortest_match_wins()
        suite.test_rule3_more_elements_wins()
        suite.test_single_match_is_its_own_winner()


def test_criterion_8_scoring_round_trip():
    with criterion("8 scoring round trip", 5.0):
        rng = random.Random(208)
        with_fills = 0
        for _ in range(100):
            g = random_graph(rng)
            counts = align_and_count(g, g)
            m = compute_metrics(counts)
            assert m.err == 0
            pct = m.as_percentages()
            assert pct["ERR"] == 0.0
            if counts.cor:
                with_fills += 1
                assert pct["REC"] == 100.0 and pct["PRE"] == 100.0
        assert with_fills >= 80  # the generator must not trivialize the check
