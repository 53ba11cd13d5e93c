import pytest

from tieupkit.config import discourse_config_from, read_kv_config
from tieupkit.discourse import DiscourseConfig, build_registry, resolve_pronouns, track_topics
from tieupkit.errors import ParseError
from tieupkit.tokens import Document, Token


def doc_of(*sentences):
    built = []
    for si, pairs in enumerate(sentences):
        built.append(tuple(Token(s, p, si, ti) for ti, (s, p) in enumerate(pairs)))
    return Document("d", tuple(built))


class TestKvConfig:
    def test_basic(self):
        values = read_kv_config("# run\ncorpus = in.tok\nout = outdir\n")
        assert values == {"corpus": "in.tok", "out": "outdir"}

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            read_kv_config("corpus in.tok")

    def test_unknown_key_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            read_kv_config("# run\ncorpus = in.tok\ncorpsu = typo.tok\n", "run.conf")

    def test_defaults(self):
        config = discourse_config_from({})
        assert config == DiscourseConfig()
        assert config.subject_markers == ("が", "は", "も")
        assert config.pronouns == {"両社", "同社", "自社"}


class TestConfiguredDiscourse:
    def test_custom_subject_markers(self):
        config = discourse_config_from({"subject_markers": "こそ"})
        doc = doc_of([("X社", "company"), ("こそ", "particle"), ("大手", "noun")])
        reg = build_registry(doc=doc)
        assert track_topics(doc, reg, config).for_sentence(0) == {1}
        assert track_topics(doc, reg).for_sentence(0) == frozenset()

    def test_custom_pronoun_inventory(self):
        config = discourse_config_from({"pronoun_near": "当社"})
        doc = doc_of(
            [("X社", "company"), ("は", "particle"), ("大手", "noun")],
            [("当社", "noun"), ("の", "particle"), ("方針", "noun")],
        )
        reg = build_registry(doc=doc)
        topics = track_topics(doc, reg, config)
        (ref,) = resolve_pronouns(doc, reg, topics, None, config)
        assert ref.surface == "当社"
        assert ref.referent_ids == {1}

    def test_markers_comma_separated(self):
        config = discourse_config_from({"subject_markers": "が, は"})
        assert config.subject_markers == ("が", "は")
