import pytest

from tieupkit.config import read_kv_config
from tieupkit.errors import ParseError


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

    def test_repeated_key_names_second_line(self):
        with pytest.raises(ParseError) as err:
            read_kv_config("corpus = a.tok\n# again\ncorpus = b.tok\n", "run.conf")
        assert err.value.line == 3 and err.value.path == "run.conf"
        assert "duplicate config key 'corpus'" in str(err.value)
