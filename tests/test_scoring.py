import random
from fractions import Fraction

from tieupkit.scoring import (
    ScoreCounts,
    align_and_count,
    compute_metrics,
    round_percent,
    score_documents,
)
from tieupkit.templates import EntityObject, TemplateGraph, TieUpObject, parse_templates

from oracles import exhaustive_align_cor
from test_templates import SAMPLE, random_graph


class TestMetrics:
    def test_reported_f_measure(self):
        m = compute_metrics(ScoreCounts(cor=60, mis=40, spu=0))
        assert m.rec == Fraction(60, 100)
        # Direct check of the published row: REC 60, PRE 68 -> P&R 63.8.
        from tieupkit.scoring import f_measure

        pr = f_measure(Fraction(60, 100), Fraction(68, 100))
        assert pr == Fraction(51, 80)  # 0.6375 exactly
        assert round_percent(pr) == 63.8

    def test_all_correct(self):
        m = compute_metrics(ScoreCounts(cor=5))
        assert m.err == 0
        assert m.rec == m.pre == m.pr == 1

    def test_all_ones_vector(self):
        m = compute_metrics(ScoreCounts(1, 1, 1, 1, 1))
        assert m.err == Fraction(7, 10)
        assert m.und == m.ovg == Fraction(1, 4)
        assert m.sub == Fraction(1, 2)
        assert m.rec == m.pre == m.pr == Fraction(3, 8)

    def test_zero_counts_flagged(self):
        m = compute_metrics(ScoreCounts())
        assert m.err == m.rec == m.pre == 0
        assert "ERR" in m.undefined and "PR" in m.undefined

    def test_rounding_half_up(self):
        assert round_percent(Fraction(6375, 10000)) == 63.8
        assert round_percent(Fraction(6374, 10000)) == 63.7
        assert round_percent(Fraction(1, 3)) == 33.3

    def random_counts(self, rng):
        return ScoreCounts(*[rng.randint(0, 30) for _ in range(5)])

    def test_identities_and_bounds(self):
        rng = random.Random(89)
        for _ in range(2000):
            c = self.random_counts(rng)
            m = compute_metrics(c)
            half = Fraction(c.cor) + Fraction(c.par, 2)
            if c.possible:
                assert m.rec * c.possible == half
            if c.actual:
                assert m.pre * c.actual == half
            for value in (m.err, m.und, m.ovg, m.sub, m.rec, m.pre, m.pr):
                assert 0 <= value <= 1
            if m.rec + m.pre > 0:
                assert min(m.rec, m.pre) <= m.pr <= max(m.rec, m.pre)

    def test_symmetry(self):
        from tieupkit.scoring import f_measure

        rng = random.Random(97)
        for _ in range(500):
            rec = Fraction(rng.randint(0, 50), 50)
            pre = Fraction(rng.randint(0, 50), 50)
            if rec + pre == 0:
                continue
            assert f_measure(rec, pre) == f_measure(pre, rec)
            if rec == pre:
                assert f_measure(rec, pre) == rec

    def test_single_fraction_forms_match_chained_formula(self):
        from tieupkit.scoring import f_measure

        def chained(rec, pre):
            return 2 * rec * pre / (rec + pre)

        rng = random.Random(113)
        for _ in range(3000):
            c = ScoreCounts(*[rng.randint(0, 60) for _ in range(5)])
            m = compute_metrics(c)
            if m.rec or m.pre:
                assert m.pr == chained(m.rec, m.pre)
                assert "PR" not in m.undefined
            else:
                assert m.pr == 0 and "PR" in m.undefined
            rec = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            pre = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            if rec or pre:
                assert f_measure(rec, pre) == chained(rec, pre)

    def test_spurious_monotonicity(self):
        rng = random.Random(101)
        for _ in range(500):
            c = self.random_counts(rng)
            base = compute_metrics(c)
            bumped = compute_metrics(ScoreCounts(c.cor, c.par, c.inc, c.mis, c.spu + 1))
            assert bumped.err > base.err or base.err == 1 or "ERR" in base.undefined
            assert bumped.ovg > base.ovg or base.ovg == 1 or "OVG" in base.undefined
            if c.actual and (c.cor or c.par):
                assert bumped.pre < base.pre


class TestAlignment:
    def test_identical_graphs_all_correct(self):
        counts = align_and_count(SAMPLE, SAMPLE)
        assert counts.par == counts.inc == counts.mis == counts.spu == 0
        # 2 refs + jv + activity + status, then name+type and name+alias+type.
        assert counts.cor == 10

    def test_substring_name_is_partial(self):
        key = TemplateGraph("d", entities=(EntityObject(1, "メルセデス・ベンツ"),))
        resp = TemplateGraph("d", entities=(EntityObject(1, "ベンツ"),))
        counts = align_and_count(resp, key)
        assert counts.par == 1 and counts.cor == 0

    def test_whitespace_normalized_before_substring(self):
        key = TemplateGraph("d", entities=(EntityObject(1, "日本電信電話  (NTT) 株式会社"),))
        resp = TemplateGraph("d", entities=(EntityObject(1, "日本電信電話 (NTT)"),))
        counts = align_and_count(resp, key)
        assert counts.par == 1 and counts.inc == 0

    def test_extra_tieup_counts_spurious(self):
        key = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (), activities=("販売",), status="EXISTING"),),
        )
        resp = TemplateGraph(
            "d",
            tieups=(
                TieUpObject(1, (), activities=("販売",), status="EXISTING"),
                TieUpObject(2, (), activities=("開発",), status="EXISTING"),
            ),
        )
        counts = align_and_count(resp, key)
        assert counts.spu == 2
        assert counts.cor == 2

    def test_missing_document_fills(self):
        counts = align_and_count(TemplateGraph("d"), SAMPLE)
        assert counts.mis == 10 and counts.actual == 0

    def test_reference_fills_follow_entity_alignment(self):
        key = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (1, 2), status="EXISTING"),),
            entities=(EntityObject(1, "X社", (), "COMPANY"),
                      EntityObject(2, "Y社", (), "COMPANY")),
        )
        # Same graph but entity numbering swapped; refs still align.
        resp = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (1, 2), status="EXISTING"),),
            entities=(EntityObject(1, "Y社", (), "COMPANY"),
                      EntityObject(2, "X社", (), "COMPANY")),
        )
        counts = align_and_count(resp, key)
        assert counts.inc == 0 and counts.mis == 0 and counts.spu == 0
        assert counts.cor == 7

    def test_wrong_reference_target_is_incorrect(self):
        key = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (1,), status="EXISTING"),),
            entities=(EntityObject(1, "X社", (), "COMPANY"),
                      EntityObject(2, "Y社", (), "COMPANY")),
        )
        resp = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (2,), status="EXISTING"),),
            entities=(EntityObject(1, "X社", (), "COMPANY"),
                      EntityObject(2, "Y社", (), "COMPANY")),
        )
        counts = align_and_count(resp, key)
        assert counts.inc == 1  # the ref fill

    def test_self_score_is_perfect_on_random_graphs(self):
        rng = random.Random(103)
        for _ in range(100):
            g = random_graph(rng)
            counts = align_and_count(g, g)
            m = compute_metrics(counts)
            assert counts.par == counts.inc == counts.mis == counts.spu == 0
            assert m.err == 0
            if counts.cor:
                assert m.rec == m.pre == 1

    def test_greedy_matches_exhaustive_on_near_copies(self):
        rng = random.Random(107)
        for _ in range(60):
            key = random_graph(rng)
            resp = perturb(key, rng)
            got = align_and_count(resp, key).cor
            want = exhaustive_align_cor(resp, key)
            assert got == want

    def test_renumbered_entities_score_perfect(self):
        # Tie-up reference slots are compared through the entity alignment,
        # so renumbering the response's entities must cost nothing.
        rng = random.Random(131)
        moved = 0
        for _ in range(200):
            g = random_graph(rng)
            renumbered = renumber_entities(g, rng)
            if any(a.entity_refs != b.entity_refs for a, b in zip(g.tieups, renumbered.tieups)):
                moved += 1
            counts = align_and_count(renumbered, g)
            assert counts.par == counts.inc == counts.mis == counts.spu == 0
        assert moved > 0


def renumber_entities(graph: TemplateGraph, rng) -> TemplateGraph:
    """Shuffle the entity ids and rewrite the tie-up refs to match."""
    ids = [e.object_id for e in graph.entities]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    new_id = dict(zip(ids, shuffled))
    entities = sorted(
        (EntityObject(new_id[e.object_id], e.name, e.aliases, e.entity_type)
         for e in graph.entities),
        key=lambda e: e.object_id,
    )
    tieups = [
        TieUpObject(t.object_id, tuple(sorted(new_id[r] for r in t.entity_refs)),
                    t.jv_company, t.activities, t.status, t.warning)
        for t in graph.tieups
    ]
    return TemplateGraph(graph.doc_id, tuple(tieups), tuple(entities))


def perturb(graph: TemplateGraph, rng) -> TemplateGraph:
    """Rename one entity and drop one tie-up slot, keeping ids."""
    entities = list(graph.entities)
    if entities:
        i = rng.randrange(len(entities))
        e = entities[i]
        entities[i] = EntityObject(e.object_id, e.name + "変", e.aliases, e.entity_type)
    tieups = list(graph.tieups)
    if tieups:
        i = rng.randrange(len(tieups))
        t = tieups[i]
        tieups[i] = TieUpObject(t.object_id, t.entity_refs, (), t.activities, t.status, t.warning)
    return TemplateGraph(graph.doc_id, tuple(tieups), tuple(entities))


class TestReport:
    def test_fixture_pair_total_row(self, data_dir):
        key = parse_templates((data_dir / "score_key" / "d1.tmpl").read_text("utf-8"), "d1")
        resp = parse_templates(
            (data_dir / "score_response" / "d1.tmpl").read_text("utf-8"), "d1"
        )
        counts = align_and_count(resp, key)
        assert (counts.cor, counts.par, counts.inc, counts.mis, counts.spu) == (1, 1, 1, 1, 1)
        report = score_documents([("d1", resp, key)])
        pct = report.total_metrics.as_percentages()
        assert [pct[k] for k in ("ERR", "UND", "OVG", "SUB", "REC", "PRE", "PR")] == [
            70.0, 25.0, 25.0, 50.0, 37.5, 37.5, 37.5,
        ]

    def test_report_has_row_per_document_and_total(self):
        report = score_documents([("a", SAMPLE, SAMPLE), ("b", SAMPLE, SAMPLE)])
        lines = report.format_table().splitlines()
        assert len(lines) == 4  # header + 2 docs + TOTAL
        assert lines[-1].startswith("TOTAL")
        assert "0.0" in lines[-1]  # ERR of a perfect response

    def test_report_lists_aligned_slots(self):
        report = score_documents([("a", SAMPLE, SAMPLE)])
        listing = report.format_listing()
        assert "-- a" in listing
        assert "COR TIE_UP-1~TIE_UP-1 STATUS: EXISTING | EXISTING" in listing
        assert listing.count("COR") == 10
        # Full report carries the listing and then the table.
        assert report.format().endswith(report.format_table())
