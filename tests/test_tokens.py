import random

import pytest

from tieupkit.errors import ParseError
from tieupkit.tokens import (
    DesignatorLexicon,
    Document,
    Token,
    group_segments,
    load_designator_lexicon,
    parse_document,
    parse_token_file,
    recognize_names,
)

from conftest import bench_corpora, load_doc
from oracles import designator_by_scan, group_segments_two_pass, recognize_names_two_pass
from test_fuzz_pipeline import random_doc


def doc_of(*sentences):
    built = []
    for si, pairs in enumerate(sentences):
        built.append(tuple(Token(s, p, si, ti) for ti, (s, p) in enumerate(pairs)))
    return Document("d", tuple(built))


COMPANY_LEX = DesignatorLexicon({"社": "company"})


class TestParsing:
    def test_minimal_file(self):
        doc = parse_document("#DOC d1\nX社\tcompany\nは\tparticle\n\n#END")
        assert doc.doc_id == "d1"
        assert len(doc.sentences) == 1
        assert [t.surface for t in doc.sentences[0]] == ["X社", "は"]

    def test_one_field_line_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_document("#DOC d1\nX社\n#END")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_token_file("X社\tcompany\n#END")

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_token_file("#DOC d1\n#END")

    def test_unterminated_document(self):
        with pytest.raises(ParseError):
            parse_token_file("#DOC d1\nX社\tcompany\n")

    def test_header_word_must_be_exactly_doc(self):
        with pytest.raises(ParseError, match="expected '#DOC <id>' header") as err:
            parse_token_file("#DOCX a\nX\tnoun\n#END\n")
        assert err.value.line == 1
        with pytest.raises(ParseError, match="missing document id"):
            parse_token_file("#DOC\nX\tnoun\n#END\n")
        assert parse_token_file("#DOC\ta\nX\tnoun\n#END\n")[0].doc_id == "a"

    def test_doc_header_inside_open_document_names_it(self):
        with pytest.raises(ParseError, match="document 'a' from line 2 not terminated by #END") as err:
            parse_token_file("\n#DOC a\nx\tnoun\n#DOC b\ny\tnoun\n#END\n")
        assert err.value.line == 4

    def test_doc_token_line_stays_a_token(self):
        (doc,) = parse_token_file("#DOC a\n#DOC\tnoun\n#END\n")
        assert [(t.surface, t.pos) for t in doc.sentences[0]] == [("#DOC", "noun")]

    @pytest.mark.parametrize("text, found", [
        ("", 0),
        ("\n\n", 0),
        ("#DOC a\nx\tnoun\n#END\n#DOC b\ny\tnoun\n#END\n", 2),
    ], ids=["empty", "blank", "two"])
    def test_parse_document_needs_exactly_one(self, text, found):
        with pytest.raises(ParseError) as err:
            parse_document(text, "in.tok")
        assert str(err.value) == f"in.tok: expected exactly one document, found {found}"
        assert (err.value.path, err.value.line) == ("in.tok", None)

    def test_worked_passage_has_two_sentences(self):
        doc = load_doc("tanabe_merck")
        assert len(doc.sentences) == 2

    def test_multiple_documents(self):
        docs = parse_token_file(
            "#DOC a\nx\tnoun\n#END\n#DOC b\ny\tnoun\n#END\n"
        )
        assert [d.doc_id for d in docs] == ["a", "b"]
        # A run of blank lines ends one sentence; each document counts from 0.
        docs = parse_token_file("#DOC a\nx\tnoun\ny\tnoun\n\n\nz\tnoun\n\n#END\n"
                                "#DOC b\n\nw\tnoun\n#END\n")
        assert [[(t.surface, t.sent_index, t.tok_index) for t in d.tokens()] for d in docs] == [
            [("x", 0, 0), ("y", 0, 1), ("z", 1, 0)], [("w", 0, 0)],
        ]

    def test_random_docs_round_trip(self):
        token_text = bench_corpora().token_text
        rng = random.Random(7)
        surfaces = ["会社", "は", "。", "提携", "X", "エー・メルク"]
        tags = ["noun", "particle", "punct", "company", "unknown"]
        for _ in range(50):
            sentences = []
            for si in range(rng.randint(1, 4)):
                sentences.append(
                    [(rng.choice(surfaces), rng.choice(tags)) for _ in range(rng.randint(1, 6))]
                )
            assert parse_document(token_text("d", sentences)) == doc_of(*sentences)


class TestDesignatorLexicon:
    def test_load(self):
        lex = load_designator_lexicon("# comment\n社\tcompany\n氏\tperson\n")
        assert lex.entries == {"社": "company", "氏": "person"}

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            load_designator_lexicon("社\tcompany\n社\tperson\n")

    def test_bad_type_rejected(self):
        with pytest.raises(ParseError):
            load_designator_lexicon("社\tfirm\n")
        with pytest.raises(ValueError, match="unknown designator entity type: org"):
            DesignatorLexicon({"社": "org"})


class TestRecognizeNames:
    def test_merge_with_designator(self):
        doc = doc_of([("エー・メルク", "unknown"), ("社", "unknown")])
        out = recognize_names(doc, COMPANY_LEX)
        assert [(t.surface, t.pos) for t in out.sentences[0]] == [("エー・メルク社", "company")]

    def test_bare_designator_after_particle(self):
        doc = doc_of([("は", "particle"), ("社", "unknown")])
        out = recognize_names(doc, COMPANY_LEX)
        assert [(t.surface, t.pos) for t in out.sentences[0]] == [
            ("は", "particle"),
            ("社", "company"),
        ]

    def test_no_designator_no_change(self):
        doc = doc_of([("日本", "noun"), ("航空", "noun")])
        assert recognize_names(doc, COMPANY_LEX) == doc

    def test_common_noun_not_anchored(self):
        # 会社 and the pronouns merely end in 社; noun tokens never anchor.
        doc = doc_of([("合弁", "noun"), ("会社", "noun"), ("を", "particle"), ("同社", "noun")])
        assert recognize_names(doc, COMPANY_LEX) == doc

    def test_stops_at_punctuation_and_numerals(self):
        doc = doc_of(
            [("、", "punct"), ("8", "noun"), ("メルク", "unknown"), ("社", "unknown")]
        )
        out = recognize_names(doc, COMPANY_LEX)
        assert [t.surface for t in out.sentences[0]] == ["、", "8", "メルク社"]

    def test_forward_extension_absorbs_noun_suffix(self):
        doc = doc_of([("株式会社", "unknown"), ("日立", "noun"), ("の", "particle")])
        lex = DesignatorLexicon({"株式会社": "company"})
        out = recognize_names(doc, lex)
        assert [t.surface for t in out.sentences[0]] == ["株式会社日立", "の"]

    def test_entity_pos_is_lexicon_type(self):
        doc = doc_of([("鈴木", "person"), ("氏", "unknown")])
        lex = DesignatorLexicon({"氏": "person"})
        out = recognize_names(doc, lex)
        assert [(t.surface, t.pos) for t in out.sentences[0]] == [("鈴木氏", "person")]


class TestGroupSegments:
    def test_connector_joins_same_type(self):
        doc = doc_of([("メルセデス", "company"), ("・", "punct"), ("ベンツ", "company")])
        out = group_segments(doc)
        assert [(t.surface, t.pos) for t in out.sentences[0]] == [
            ("メルセデス・ベンツ", "company")
        ]

    def test_single_token_unchanged(self):
        doc = doc_of([("X社", "company")])
        assert group_segments(doc) == doc

    def test_particle_blocks_join(self):
        doc = doc_of([("X社", "company"), ("と", "particle"), ("Y社", "company")])
        out = group_segments(doc)
        assert [t.surface for t in out.sentences[0]] == ["X社", "と", "Y社"]

    def test_mixed_types_not_joined(self):
        doc = doc_of([("X社", "company"), ("鈴木氏", "person")])
        assert group_segments(doc) == doc


def random_docs(count, rng):
    surfaces = ["メルク", "社", "・", "は", "提携", "X", "氏", "8", "鈴木"]
    tags = ["noun", "unknown", "particle", "punct", "company", "person", "verb", "other"]
    for _ in range(count):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            sentences.append(
                [(rng.choice(surfaces), rng.choice(tags)) for _ in range(rng.randint(1, 8))]
            )
        yield doc_of(*sentences)


class TestPipelineInvariants:
    def test_concatenation_preserved(self):
        rng = random.Random(11)
        lex = DesignatorLexicon({"社": "company", "氏": "person"})

        def text(d):
            return "".join(t.surface for t in d.tokens())

        for doc in random_docs(200, rng):
            out = group_segments(recognize_names(doc, lex))
            assert text(out) == text(doc)

    def test_idempotence(self):
        rng = random.Random(13)
        lex = DesignatorLexicon({"社": "company", "氏": "person"})
        for doc in random_docs(200, rng):
            once = recognize_names(doc, lex)
            assert recognize_names(once, lex) == once
            grouped = group_segments(once)
            assert group_segments(grouped) == grouped

    def test_merged_tokens_carry_entity_pos(self):
        rng = random.Random(17)
        lex = DesignatorLexicon({"社": "company", "氏": "person"})
        for doc in random_docs(100, rng):
            out = recognize_names(doc, lex)
            original = {(t.surface, t.pos) for t in doc.tokens()}
            for tok in out.tokens():
                if (tok.surface, tok.pos) not in original:
                    assert tok.pos in {"company", "person", "place"}


def with_indices_zero(doc):
    """The same tokens, every one claiming position (0, 0)."""
    return Document(
        doc.doc_id,
        tuple(tuple(Token(t.surface, t.pos) for t in sent) for sent in doc.sentences),
    )


def assert_indices_are_positions(doc):
    for s, sent in enumerate(doc.sentences):
        assert [(t.sent_index, t.tok_index) for t in sent] == [(s, t) for t in range(len(sent))]


class TestSinglePass:
    """Recognition and grouping give each token its final indices as they
    emit it; the result equals the former rebuild-then-reindex passes."""

    LEXICONS = [
        COMPANY_LEX,
        DesignatorLexicon({"社": "company", "氏": "person"}),
        DesignatorLexicon({"社": "company", "株式会社": "company", "銀行": "company",
                           "・": "place", "X": "person"}),
    ]

    def documents(self, seed):
        rng = random.Random(seed)
        docs = [random_doc(rng, f"fuzz{k}") for k in range(150)]
        docs += list(random_docs(150, rng))
        return docs + [with_indices_zero(doc) for doc in docs]

    def test_equals_two_pass(self, resources):
        stale = merged = 0
        for lex in self.LEXICONS + [resources.designators]:
            for doc in self.documents(23):
                named = recognize_names(doc, lex)
                assert named == recognize_names_two_pass(doc, lex)
                assert_indices_are_positions(named)
                grouped = group_segments(named)
                assert grouped == group_segments_two_pass(named)
                assert_indices_are_positions(grouped)
                stale += any(
                    (t.sent_index, t.tok_index) != (s, i)
                    for s, sent in enumerate(doc.sentences)
                    for i, t in enumerate(sent)
                )
                merged += len(list(grouped.tokens())) < len(list(doc.tokens()))
        assert stale > 100 and merged > 100, (stale, merged)

    def test_grouping_alone_equals_two_pass(self):
        for doc in self.documents(29):
            grouped = group_segments(doc)
            assert grouped == group_segments_two_pass(doc)
            assert_indices_are_positions(grouped)

    def test_empty_lexicon_returns_document_unchanged(self):
        lex = DesignatorLexicon({})
        for doc in self.documents(31)[:20]:
            assert recognize_names(doc, lex) is doc
            assert recognize_names_two_pass(doc, lex) is doc

    def test_tokens_already_in_place_are_reused(self):
        doc = doc_of([("は", "particle"), ("メルク", "unknown"), ("社", "unknown"),
                      ("と", "particle")])
        out = group_segments(recognize_names(doc, COMPANY_LEX))
        assert out.sentences[0][0] is doc.sentences[0][0]
        assert out.sentences[0][2] == Token("と", "particle", 0, 2)


class TestDesignatorLookup:
    """Lookup by suffix length, longest first, equals the scan over every entry."""

    ALPHABET = ["社", "会", "式", "株", "銀", "行", "氏", "X"]

    def test_equals_linear_scan_on_random_lexicons(self):
        rng = random.Random(37)
        seen = set()
        for _ in range(400):
            entries = {}
            for _ in range(rng.randint(0, 6)):
                designator = "".join(rng.choices(self.ALPHABET, k=rng.randint(1, 4)))
                entries[designator] = rng.choice(["company", "person", "place"])
            lex = DesignatorLexicon(entries)
            longest = max(map(len, entries), default=0)
            surfaces = ["".join(rng.choices(self.ALPHABET, k=rng.randint(1, 6)))
                        for _ in range(20)]
            surfaces += list(entries)
            for surface in surfaces:
                want = designator_by_scan(entries, surface)
                assert lex.match(surface) == want, (entries, surface)
                hits = [d for d in entries if surface.endswith(d)]
                if not entries:
                    seen.add("empty lexicon")
                if len(hits) > 1:
                    seen.add("nested designators")
                if len(surface) < longest and want is not None:
                    seen.add("surface shorter than the longest designator")
                if surface in entries:
                    seen.add("surface equals a designator")
                if entries and not any(d[-1] == surface[-1] for d in entries):
                    seen.add("last character is no designator's")
        assert len(seen) == 5, seen

    def test_nested_designators_longest_wins(self):
        lex = DesignatorLexicon({"社": "place", "株式会社": "company", "会社": "person"})
        assert lex.match("日立株式会社") == "company"
        assert lex.match("会社") == "person"
        assert lex.match("社") == "place"
        assert lex.match("株式") is None
        assert DesignatorLexicon({}).match("社") is None
        assert DesignatorLexicon({"": "company"}).match("社") is None
