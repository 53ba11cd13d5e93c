import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tieupkit
from tieupkit.cli import main

from conftest import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_extract_worked_passage(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--out", str(out),
        )
        assert code == 0, err
        golden = (DATA / "golden" / "tanabe_merck.tmpl").read_text("utf-8")
        assert (out / "tanabe_merck.tmpl").read_text("utf-8") == golden

    def test_extract_directory_corpus(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "extract", "--corpus", str(DATA / "corpus"), "--out", str(out)
        )
        assert code == 0
        produced = {p.name for p in out.glob("*.tmpl")}
        assert produced == {
            "tanabe_merck.tmpl", "multi_tieup.tmpl", "pronouns_a.tmpl",
            "pronouns_b.tmpl", "abbrev_sale.tmpl", "dissolved.tmpl",
        }

    def test_empty_pattern_file_zero_tieups(self, tmp_path, capsys):
        patterns = tmp_path / "empty.pat"
        patterns.write_text("# no rules\n", "utf-8")
        out = tmp_path / "out"
        code, _, _ = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--patterns", str(patterns),
            "--out", str(out),
        )
        assert code == 0
        text = (out / "tanabe_merck.tmpl").read_text("utf-8")
        assert "<TIE_UP" not in text

    def test_missing_pattern_path_fails_with_path_in_message(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--patterns", str(tmp_path / "nope.pat"),
            "--out", str(tmp_path / "out"),
        )
        assert code != 0
        assert "nope.pat" in err

    def test_duplicate_doc_ids_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.tok", "b.tok"):
            (corpus / name).write_text("#DOC same\nX社\tcompany\n#END\n", "utf-8")
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code != 0
        assert "duplicate document id" in err

    def test_malformed_corpus_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tok"
        bad.write_text("#DOC d\nX社\n#END\n", "utf-8")
        code, _, err = run(
            capsys, "extract", "--corpus", str(bad), "--out", str(tmp_path / "out")
        )
        assert code != 0
        assert "line 2" in err

    def test_dump_stages_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "multi_tieup.tok"),
            "--out", str(out),
            "--dump", "registry",
            "--dump", "segments",
            "--dump", "topics",
            "--dump", "matches",
        )
        assert code == 0
        for stage in ("registry", "segments", "topics", "matches"):
            assert (out / f"multi_tieup.{stage}.txt").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        out_flag = tmp_path / "from_flag"
        config = tmp_path / "run.conf"
        config.write_text(
            f"corpus = {DATA / 'corpus' / 'multi_tieup.tok'}\n"
            f"out = {tmp_path / 'from_file'}\n",
            "utf-8",
        )
        code, _, _ = run(
            capsys, "extract", "--config", str(config), "--out", str(out_flag)
        )
        assert code == 0
        assert (out_flag / "multi_tieup.tmpl").exists()
        assert not (tmp_path / "from_file").exists()

    def test_no_discourse_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "multi_tieup.tok"),
            "--out", str(out),
            "--no-discourse",
        )
        assert code == 0
        from tieupkit.templates import parse_templates

        graph = parse_templates((out / "multi_tieup.tmpl").read_text("utf-8"), "multi_tieup")
        # One tie-up per best pattern match: two joint ventures plus the sale.
        assert len(graph.tieups) == 3
        assert any(t.warning for t in graph.tieups)
        entity_ids = {e.object_id for e in graph.entities}
        assert all(r in entity_ids for t in graph.tieups for r in t.entity_refs)

    def test_discourse_config_keys_respected(self, tmp_path, capsys):
        # Renaming the near-company pronoun away disables 同社 resolution.
        config = tmp_path / "run.conf"
        config.write_text("pronoun_near = 当社\n", "utf-8")
        out = tmp_path / "out"
        code, _, _ = run(
            capsys,
            "extract",
            "--config", str(config),
            "--corpus", str(DATA / "corpus" / "pronouns_a.tok"),
            "--out", str(out),
            "--dump", "matches",
        )
        assert code == 0
        assert (out / "pronouns_a.tmpl").exists()

    def test_unknown_config_key_rejected_with_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            f"corpus = {DATA / 'corpus' / 'multi_tieup.tok'}\njobs = 4\n", "utf-8"
        )
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "extract", "--config", str(config), "--out", str(out)
        )
        assert code == 2
        assert "line 2" in err and "'jobs'" in err
        assert not out.exists()

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            run(capsys, "extract", "--corpus", str(DATA / "corpus"), "--out", str(out))
        for path in sorted(first.iterdir()):
            assert path.read_text("utf-8") == (second / path.name).read_text("utf-8")

    def test_successful_extract_is_silent(self, tmp_path):
        # A fresh interpreter: in-process, pytest's own logging handlers
        # would capture a log line before it reached stderr.
        src = str(Path(tieupkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "tieupkit.cli", "extract",
             "--corpus", str(DATA / "corpus"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestScore:
    def extract_to(self, tmp_path, capsys):
        out = tmp_path / "resp"
        run(capsys, "extract", "--corpus", str(DATA / "corpus"), "--out", str(out))
        return out

    def test_identical_dirs_zero_error(self, tmp_path, capsys):
        out = self.extract_to(tmp_path, capsys)
        code, stdout, _ = run(capsys, "score", str(out), str(out))
        assert code == 0
        total = [l for l in stdout.splitlines() if l.startswith("TOTAL")][0]
        assert total.split()[1] == "0.0"  # ERR
        assert total.split()[5] == "100.0"  # REC

    def test_missing_response_counts_missing(self, tmp_path, capsys):
        out = self.extract_to(tmp_path, capsys)
        partial = tmp_path / "partial"
        partial.mkdir()
        for name in ("multi_tieup.tmpl",):
            shutil.copy(out / name, partial / name)
        code, stdout, err = run(capsys, "score", str(partial), str(out))
        assert code == 0
        assert "no response for" in err
        total = [l for l in stdout.splitlines() if l.startswith("TOTAL")][0]
        und = float(total.split()[2])
        assert und > 0.0

    def test_response_without_key_counts_spurious(self, tmp_path, capsys):
        out = self.extract_to(tmp_path, capsys)
        keys = tmp_path / "keys"
        keys.mkdir()
        shutil.copy(out / "multi_tieup.tmpl", keys / "multi_tieup.tmpl")
        code, stdout, err = run(capsys, "score", str(out), str(keys))
        assert code == 0
        assert "no answer key" in err
        total = [l for l in stdout.splitlines() if l.startswith("TOTAL")][0]
        ovg = float(total.split()[3])
        assert ovg > 0.0

    def test_fixture_pair_reports_published_row_shape(self, capsys):
        code, stdout, _ = run(
            capsys, "score", str(DATA / "score_response"), str(DATA / "score_key")
        )
        assert code == 0
        total = [l for l in stdout.splitlines() if l.startswith("TOTAL")][0]
        assert total.split()[1:] == ["70.0", "25.0", "25.0", "50.0", "37.5", "37.5", "37.5"]


class TestArgs:
    def test_missing_required_flags(self, capsys):
        code = main(["extract"])
        captured = capsys.readouterr()
        assert code == 2
        assert "required" in captured.err

    def test_unknown_dump_stage_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract", "--corpus", "x", "--out", "y", "--dump", "everything"])
