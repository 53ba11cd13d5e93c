import functools
import hashlib
import random
import re
from fractions import Fraction

import pytest

from tieupkit.pipeline import extract_document
from tieupkit.scoring import (
    METRIC_NAMES,
    FillScore,
    ScoreCounts,
    _SORT_MAX_PAIRS,
    _align_by_index,
    _align_by_sorting,
    _align_type,
    _format_row,
    _TABLE_PLANS,
    _slot_tables,
    align_and_count,
    compute_metrics,
    round_percent,
    score_documents,
    score_fills,
    tally,
)
from tieupkit.templates import (
    EntityObject,
    TemplateGraph,
    TieUpObject,
    parse_templates,
    serialize_templates,
)

import oracles
from conftest import bench_corpora, load_doc
from oracles import align_by_sorting, exhaustive_align_cor, fills_by_fields, slot_values_by_fills
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

    def test_integer_rounding_matches_fraction_formula(self):
        def by_fractions(value):
            scaled = value * 1000
            floor = scaled.numerator // scaled.denominator
            if 2 * (scaled - floor) >= 1:
                floor += 1
            return floor / 10

        rng = random.Random(137)
        for _ in range(200_000):
            den = rng.randint(1, 2000)
            value = Fraction(rng.randint(0, den), den)
            assert round_percent(value) == by_fractions(value)

    def random_counts(self, rng):
        return ScoreCounts(*[rng.randint(0, 30) for _ in range(5)])

    def test_rows_from_counts_equal_rows_from_fractions(self):
        # Every all-zero and single-category vector, then random ones: small,
        # large, and with random categories zeroed.
        vectors = [(0,) * 5] + [
            tuple(n if i == j else 0 for i in range(5)) for j in range(5) for n in (1, 2, 7)
        ]
        rng = random.Random(167)
        while len(vectors) < 10_000:
            top = rng.choice((3, 30, 1000, 10**9))
            vectors.append(tuple(
                0 if rng.random() < 0.3 else rng.randint(0, top) for _ in range(5)
            ))
        for counts in vectors:
            label = f"d{rng.randrange(100)}"
            reference = oracles.compute_metrics(oracles.ScoreCounts(*counts))
            row = _format_row(label, ScoreCounts(*counts))
            assert row == oracles._format_row(label, reference), counts
            # The Fractions agree with the oracle's too, undefined flags included.
            metrics = compute_metrics(ScoreCounts(*counts))
            assert tuple(metrics) == tuple(reference.__dict__.values()), counts

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

    def test_counts_depend_on_the_numbering_of_equal_entities(self):
        # Response entities 1 and 3 have equal content and tie on COR with
        # key entity 1; the lower response id takes it, and that decides
        # whether the tie-up's reference to the duplicate is aligned.  The
        # alignment rule is the spec, so this pins the dependence.
        key = parse_templates(
            "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-1> <ENTITY-2>\n  STATUS: EXISTING\n\n"
            "<ENTITY-1> :=\n  NAME: A社\n  ALIASES: A社X\n\n"
            "<ENTITY-2> :=\n  NAME: B社\n",
            "d",
        )
        counts = {}
        for refs in ("<ENTITY-2> <ENTITY-3>", "<ENTITY-1> <ENTITY-2>"):
            response = parse_templates(
                f"<TIE_UP-1> :=\n  ENTITIES: {refs}\n  STATUS: EXISTING\n\n"
                "<ENTITY-1> :=\n  NAME: A社\n  ALIASES: A社X\n\n"
                "<ENTITY-2> :=\n  NAME: B社\n\n"
                "<ENTITY-3> :=\n  NAME: A社\n  ALIASES: A社X\n",
                "d",
            )
            c = align_and_count(response, key)
            w = oracles.tally(oracles.score_fills(response, key))
            assert (c.cor, c.par, c.inc, c.mis, c.spu) == (w.cor, w.par, w.inc, w.mis, w.spu)
            counts[refs] = (c.cor, c.par, c.inc, c.mis, c.spu)
        assert counts == {
            "<ENTITY-2> <ENTITY-3>": (5, 0, 1, 0, 2),
            "<ENTITY-1> <ENTITY-2>": (6, 0, 0, 0, 2),
        }


class TestIndexedAlignment:
    """Both alignment routines, and _align_type that picks one by pair count,
    return exactly the pairs of sorting every pair."""

    def assert_same_pairs(self, response, key):
        # Slot tables as score_fills builds them, and the former scorer's
        # tables for the former alignment: tie-up tables map their references
        # through the finished entity alignment.
        entity_map: dict[int, int] = {}
        for resp_objs, key_objs in (
            (response.entities, key.entities),
            (response.tieups, key.tieups),
        ):
            want = align_by_sorting(resp_objs, key_objs,
                                    [slot_values_by_fills(o, entity_map) for o in resp_objs],
                                    [slot_values_by_fills(o, None) for o in key_objs])
            resp_tables = _slot_tables(resp_objs, entity_map)
            key_tables = _slot_tables(key_objs, None)
            for align in (_align_by_index, _align_by_sorting, _align_type):
                assert align(resp_objs, key_objs, resp_tables, key_tables) == want, align
            for ri, ki in want:
                entity_map[resp_objs[ri].object_id] = key_objs[ki].object_id

    def test_same_pairs_as_sorting_every_pair(self):
        rng = random.Random(139)
        for _ in range(2000):
            key = shuffle_objects(random_graph(rng), rng)
            if rng.random() < 0.5:
                response = random_graph(rng)
            else:
                response = shuffle_objects(renumber_entities(perturb(key, rng), rng), rng)
            self.assert_same_pairs(response, key)

        # Every pair linked: one shared ACTIVITY and one shared alias.
        for _ in range(20):
            key = shuffle_objects(wide_graph(rng, 12, 8, shared=True), rng)
            response = shuffle_objects(wide_graph(rng, 12, 8, shared=True), rng)
            self.assert_same_pairs(response, key)

        # One flipped STATUS.
        key = wide_graph(rng, 6, 5, shared=True)
        t = key.tieups[2]
        flipped = TieUpObject(t.object_id, t.entity_refs, t.jv_company, t.activities,
                              "DISSOLVED" if t.status == "EXISTING" else "EXISTING",
                              t.warning)
        response = TemplateGraph("d", key.tieups[:2] + (flipped,) + key.tieups[3:],
                                 key.entities)
        self.assert_same_pairs(response, key)

        # Empty sides.
        g = random_graph(random.Random(149))
        empty = TemplateGraph("d")
        for response, key in ((empty, g), (g, empty), (empty, empty)):
            self.assert_same_pairs(response, key)

        # A registry-sized graph against a renumbered, perturbed copy.
        key = wide_graph(rng, 300, 100, shared=False)
        response = key
        for _ in range(20):
            response = perturb(response, rng)
        response = shuffle_objects(renumber_entities(response, rng), rng)
        self.assert_same_pairs(response, key)

    def test_same_pairs_when_values_cross_slots(self):
        # A value held by two slots, or twice by one, links pairs that share
        # no open (slot, value); their counts still decide.
        rng = random.Random(173)
        for _ in range(2000):
            response, key = crossed_graph(rng), shuffle_objects(crossed_graph(rng), rng)
            self.assert_same_pairs(response, key)

    def test_same_pairs_on_each_side_of_the_sort_limit(self):
        # k x k objects per kind, plain and with every pair linked, then
        # lopsided and empty sides: pair counts from 0 to 64.
        rng = random.Random(181)
        sizes = [(k, k) for k in range(1, 9)] + [(0, 5), (5, 0), (1, 12), (12, 1)]
        pair_counts = set()
        for n_resp, n_key in sizes:
            pair_counts.add(n_resp * n_key)
            for shared in (False, True):
                for _ in range(30):
                    key = shuffle_objects(wide_graph(rng, n_key, n_key, shared), rng)
                    if n_resp == n_key and rng.random() < 0.5:
                        response = renumber_entities(perturb(key, rng), rng)
                    else:
                        response = wide_graph(rng, n_resp, n_resp, shared)
                    self.assert_same_pairs(shuffle_objects(response, rng), key)
        assert min(pair_counts) == 0 and _SORT_MAX_PAIRS in pair_counts
        assert max(pair_counts) > _SORT_MAX_PAIRS


class TestSameScoresAsBefore:
    """Fill records, counts and report text equal those of the former scorer
    kept in ``tests/oracles.py``."""

    def test_records_counts_and_report_text(self):
        rng = random.Random(167)
        pairs = []
        for n in range(2000):
            key = shuffle_objects(random_graph(rng), rng)
            if n % 4 == 0:
                response = random_graph(rng)
            elif n % 4 == 1:
                response = shuffle_objects(renumber_entities(perturb(key, rng), rng), rng)
            elif n % 4 == 2:
                response = key
            else:
                response, key = crossed_graph(rng), crossed_graph(rng)
            pairs.append((f"d{n}", response, key))
        for n in range(20):
            key = wide_graph(rng, 12, 8, shared=True)
            pairs.append((f"w{n}", shuffle_objects(perturb(key, rng), rng), key))
        # A registry-sized graph against a renumbered, perturbed copy.
        key = wide_graph(rng, 300, 100, shared=False)
        response = key
        for _ in range(20):
            response = perturb(response, rng)
        pairs.append(("r", shuffle_objects(renumber_entities(response, rng), rng), key))

        fields = ("kind", "label", "slot", "key_value", "resp_value", "category")
        assert FillScore._fields == fields
        for _doc_id, response, key in pairs:
            got = score_fills(response, key)
            want = oracles.score_fills(response, key)
            assert [tuple(r) for r in got] == [tuple(getattr(w, f) for f in fields) for w in want]
            c, w = tally(got), oracles.tally(want)
            assert (c.cor, c.par, c.inc, c.mis, c.spu) == (w.cor, w.par, w.inc, w.mis, w.spu)
        for i in range(0, len(pairs), 7):
            chunk = pairs[i : i + 7]
            assert score_documents(chunk).format() == oracles.score_documents(chunk).format()


def crossed_graph(rng) -> TemplateGraph:
    """Names that are other entities' aliases or jv companies, multi-valued
    slots that hold a value twice, and values that are substrings of others."""
    pool = ["A社", "B社", "A社X", "A社  X"]
    entities = tuple(
        EntityObject(
            i,
            rng.choice(pool),
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))),
            rng.choice(["COMPANY", "PERSON", None]),
        )
        for i in range(1, rng.randint(0, 4) + 1)
    )
    tieups = tuple(
        TieUpObject(
            i,
            tuple(sorted(rng.sample(range(1, len(entities) + 1),
                                    rng.randint(0, min(2, len(entities)))))),
            jv_company=tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))),
            activities=tuple(rng.choice(["販売", "開発"]) for _ in range(rng.randint(0, 3))),
            status=rng.choice(["EXISTING", "DISSOLVED", None]),
            warning=rng.choice([None, "UNDER-SPECIFIED"]),
        )
        for i in range(1, rng.randint(0, 3) + 1)
    )
    return TemplateGraph("d", tieups, entities)


class TestSlotTables:
    """Slot tables read from the object fields hold, slot by slot in name
    order, the values parsed back out of the flattened fills, and reading
    them in layout order gives those fills."""

    def test_equal_to_tables_from_fills(self):
        rng = random.Random(151)
        graphs = [random_graph(rng) for _ in range(300)]
        graphs += [wide_graph(rng, 8, 6, shared=rng.random() < 0.5) for _ in range(30)]
        graphs.append(SAMPLE)
        graphs.append(TemplateGraph("d", (TieUpObject(1, ()),), (EntityObject(1, ""),)))
        seen = set()
        for g in graphs:
            ids = [e.object_id for e in g.entities]
            entity_map = {i: rng.randint(1, 9) for i in ids if rng.random() < 0.6}
            for obj in g.entities + g.tieups:
                plan = _TABLE_PLANS[type(obj)]
                (table,) = _slot_tables([obj], None)
                listed = [(plan.names[n], v) for n in plan.layout for v in table[n]]
                assert listed == fills_by_fields(obj)
                for mapping in (None, {}, entity_map):
                    (got,) = _slot_tables([obj], mapping)
                    want = slot_values_by_fills(obj, mapping)
                    assert got == tuple(tuple(want.get(slot, ())) for slot in plan.names)
                    assert want.keys() <= set(plan.names)
                    for slot, values in zip(plan.names, got):
                        if slot == "ENTITIES":
                            seen.update(v.split(":")[0] for v in values)
        assert seen == {"ENTITY", "unaligned"}


def wide_graph(rng, n_entities: int, n_tieups: int, shared: bool) -> TemplateGraph:
    """With ``shared``, every entity has the alias 共通 and every tie-up the
    ACTIVITY 販売, so that every pair of objects of a kind is linked."""
    common_alias = ("共通",) if shared else ()
    common_activity = ("販売",) if shared else ()
    entities = tuple(
        EntityObject(
            i,
            f"{rng.choice(['X', 'Y', 'Z'])}社{rng.randrange(n_entities)}",
            common_alias + tuple(f"略{rng.randrange(n_entities)}" for _ in range(rng.randint(0, 2))),
            rng.choice(["COMPANY", "COMPANY", "PERSON", None]),
        )
        for i in range(1, n_entities + 1)
    )
    tieups = []
    for i in range(1, n_tieups + 1):
        refs = tuple(sorted(rng.sample(range(1, n_entities + 1),
                                       rng.randint(0, min(2, n_entities)))))
        tieups.append(
            TieUpObject(
                i,
                refs,
                jv_company=tuple(rng.sample(["合弁会社", "新会社"], rng.randint(0, 1))),
                activities=common_activity + tuple(rng.sample(["開発", "製造"], rng.randint(0, 1))),
                status=rng.choice(["EXISTING", "EXISTING", "DISSOLVED"]),
                warning="UNDER-SPECIFIED" if len(refs) < 2 else None,
            )
        )
    return TemplateGraph("d", tuple(tieups), entities)


def shuffle_objects(graph: TemplateGraph, rng) -> TemplateGraph:
    """Same objects in another order, as a template file may list them."""
    tieups, entities = list(graph.tieups), list(graph.entities)
    rng.shuffle(tieups)
    rng.shuffle(entities)
    return TemplateGraph(graph.doc_id, tuple(tieups), tuple(entities))


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

    def test_empty_key_and_response_row_reads_zero_and_is_flagged(self):
        # Every measure is 0/0: the row reads 0.0 throughout, REC, PRE and
        # P&R as a total miss's do, and only metrics.undefined tells them apart.
        empty = TemplateGraph("d")
        report = score_documents([("d", empty, empty), ("miss", empty, SAMPLE)])
        both_empty, miss = report.documents
        rows = report.format_table().splitlines()
        assert rows[1].split() == ["d"] + ["0.0"] * 7
        assert both_empty.metrics.undefined == set(METRIC_NAMES)
        assert rows[2].split()[5:] == ["0.0"] * 3
        assert "REC" not in miss.metrics.undefined

    def test_fixture_row_with_no_tieup_is_flagged(self, data_dir, resources):
        # pronouns_b names one company and no tie-up: its output and its
        # hand-written key are both empty.
        response = parse_templates(serialize_templates(
            extract_document(load_doc("pronouns_b"), resources).graph), "pronouns_b")
        key_text = (data_dir / "golden" / "pronouns_b.tmpl").read_text("utf-8")
        report = score_documents([("pronouns_b", response, parse_templates(key_text))])
        (doc,) = report.documents
        assert report.format_table().splitlines()[1].split() == ["pronouns_b"] + ["0.0"] * 7
        assert doc.metrics.undefined == set(METRIC_NAMES)

    def test_report_has_row_per_document_and_total(self):
        report = score_documents([("a", SAMPLE, SAMPLE), ("b", SAMPLE, SAMPLE)])
        lines = report.format_table().splitlines()
        assert len(lines) == 4  # header + 2 docs + TOTAL
        assert lines[-1].startswith("TOTAL")
        assert "0.0" in lines[-1]  # ERR of a perfect response

    def test_listing_orders_and_numbering(self):
        # Aligned pairs list slots by name (ALIASES before NAME, ACTIVITY
        # before ENTITIES); objects left over list them in layout order.
        # The aligned tie-up's references are in the key's numbering, its
        # reference to the unaligned response entity 3 as unaligned:3; the
        # response tie-up left over uses its own, so its ENTITY:1 is B社
        # where the aligned tie-up's ENTITY:1 is A社.
        key = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (1, 2), activities=("販売",), status="EXISTING"),),
            entities=(EntityObject(1, "A社", ("AA",), "COMPANY"),
                      EntityObject(2, "B社", (), "COMPANY")),
        )
        response = TemplateGraph(
            "d",
            tieups=(TieUpObject(1, (2, 3), activities=("販売",), status="EXISTING"),
                    TieUpObject(2, (1, 2), activities=("開発",), status="DISSOLVED")),
            entities=(EntityObject(1, "B社", (), "COMPANY"),
                      EntityObject(2, "A社", ("AA",), "COMPANY"),
                      EntityObject(3, "C社", ("CC",), "COMPANY")),
        )
        report = score_documents([("d", response, key)]).format()
        assert report == """\
-- d
  COR ENTITY-2~ENTITY-1 ALIASES: AA | AA
  COR ENTITY-2~ENTITY-1 NAME: A社 | A社
  COR ENTITY-2~ENTITY-1 TYPE: COMPANY | COMPANY
  COR ENTITY-1~ENTITY-2 NAME: B社 | B社
  COR ENTITY-1~ENTITY-2 TYPE: COMPANY | COMPANY
  SPU ENTITY-3 NAME: - | C社
  SPU ENTITY-3 ALIASES: - | CC
  SPU ENTITY-3 TYPE: - | COMPANY
  COR TIE_UP-1~TIE_UP-1 ACTIVITY: 販売 | 販売
  COR TIE_UP-1~TIE_UP-1 ENTITIES: ENTITY:1 | ENTITY:1
  INC TIE_UP-1~TIE_UP-1 ENTITIES: ENTITY:2 | unaligned:3
  COR TIE_UP-1~TIE_UP-1 STATUS: EXISTING | EXISTING
  SPU TIE_UP-2 ENTITIES: - | ENTITY:1
  SPU TIE_UP-2 ENTITIES: - | ENTITY:2
  SPU TIE_UP-2 ACTIVITY: - | 開発
  SPU TIE_UP-2 STATUS: - | DISSOLVED

DOC                  ERR     UND     OVG     SUB     REC     PRE     P&R
d                   50.0     0.0    43.8    11.1    88.9    50.0    64.0
TOTAL               50.0     0.0    43.8    11.1    88.9    50.0    64.0"""
        assert report == oracles.score_documents([("d", response, key)]).format()

    def test_report_lists_aligned_slots(self):
        report = score_documents([("a", SAMPLE, SAMPLE)])
        listing = report.format_listing()
        assert "-- a" in listing
        assert "COR TIE_UP-1~TIE_UP-1 STATUS: EXISTING | EXISTING" in listing
        assert listing.count("COR") == 10
        # Full report carries the listing and then the table.
        assert report.format().endswith(report.format_table())


# SHA-256 of the report text when each workload's seed-1 answers are scored
# against the seed-1 keys (one perturbation a document), against the seed-2
# keys (another corpus: ties, partial fills and objects left over), and,
# "spaced", against the seed-1 keys with each NAME's first character set off
# by one space while the answers set it off by two: the corpora hold no
# whitespace inside a value.  Such a pair is equal only after whitespace
# normalization, so it scores INC, not PAR.
REPORT_PINS = {
    ("news", "1"): "e76e659b5f95ccc17f9468508a90b0458a0f6797bbf3b9c34f56c35cb3677538",
    ("news", "2"): "c549961e52844341f5e751fb55ace483ad377a63d499caefbf6187c4f9757b49",
    ("news", "spaced"): "5ee45b078be907478961570625597656c3b1055da89cfc6d4c9b1c3b5913134a",
    ("long_sentence", "1"): "00340b55348892a94d1586d3b4a257f0c27f997f5112f69bb193bef5cc1a5779",
    ("long_sentence", "2"): "74c50e4dcd06add7225d1b7a761806d8d140f02d60086c3639e07718e29fa435",
    ("long_sentence", "spaced"): "e351f5898f7ac1d28d99166bccb75becf5a8ea8bc3c61d1ddd1a3d5c3ca0dfef",
    ("registry", "1"): "2f5f27a4a91461c959830eb971599533573e9a0a579050abe9e40199fec227f2",
    ("registry", "2"): "99dd1008dfb58ad5857dca829a5b6f0e6361c4d096b82fbc5d3bfb1cb2f438a4",
    ("registry", "spaced"): "22e68235cdd4140b476afce71ac2b0753ff00ead9b14aca19b1d52128e6b50e6",
}


@functools.cache
def corpus_documents(workload: str, seed: int):
    return bench_corpora().WORKLOADS[workload](seed).documents


def spaced(text: str, gap: str) -> str:
    """``text`` with ``gap`` after the first character of each NAME."""
    return re.sub(r"(?m)^(  NAME: \S)", rf"\1{gap}", text)


@pytest.mark.parametrize("workload, keys", sorted(REPORT_PINS))
def test_corpus_scale_report_is_pinned(workload, keys):
    # The answers are the corpus's own expected outputs, so nothing is
    # extracted; every record line and table row is in the hashed text.
    answers = corpus_documents(workload, 1)
    pairs = [(a.expected, k.key.text())
             for a, k in zip(answers, corpus_documents(workload, 2 if keys == "2" else 1))]
    if keys == "spaced":
        pairs = [(spaced(answer, "  "), spaced(key, " ")) for answer, key in pairs]
    assert len(pairs) == len(answers)
    report = score_documents([
        (a.doc_id, parse_templates(answer, a.doc_id), parse_templates(key, a.doc_id))
        for a, (answer, key) in zip(answers, pairs)
    ])
    digest = hashlib.sha256(report.format().encode("utf-8")).hexdigest()
    assert digest == REPORT_PINS[workload, keys]
