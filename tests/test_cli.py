import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tieupkit
from tieupkit.cli import DUMP_STAGES, RESOURCES, RunConfig, _dump_text, main
from tieupkit.templates import parse_templates, serialize_templates
from tieupkit.tokens import parse_token_file

from ablation import extract_without_discourse
from conftest import DATA, PACKAGED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_without_discourse(out: Path, resources, stages=()):
    """The fixture corpus through the ablation harness, written as
    ``tieupkit extract`` writes: a template per document and the dumps of
    ``stages``."""
    out.mkdir()
    for path in sorted((DATA / "corpus").glob("*.tok")):
        for doc in parse_token_file(path.read_text("utf-8"), str(path)):
            result = extract_without_discourse(doc, resources)
            (out / f"{doc.doc_id}.tmpl").write_text(serialize_templates(result.graph), "utf-8")
            for stage in stages:
                (out / f"{doc.doc_id}.{stage}.txt").write_text(_dump_text(result, stage), "utf-8")


def run_fresh(*argv, **env):
    """``tieupkit`` in a fresh interpreter, with ``env`` added to the
    environment; stdout and stderr are read as UTF-8."""
    src = str(Path(tieupkit.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "tieupkit.cli", *argv],
                          capture_output=True, encoding="utf-8", env=env)


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

    def test_duplicate_rule_name_fails_with_line(self, tmp_path, capsys):
        # Matching the second rule's two spans against the first rule's
        # index field used to raise IndexError.
        patterns = tmp_path / "dup.pat"
        patterns.write_text(
            "(EconomicActivity2 4 @CNAME_PARTNER_SUBJ は|が:strict:P @SKIP 販売:loose:VN)\n"
            "(EconomicActivity2 2 @CNAME_PARTNER_SUBJ 開発:loose:VN)\n",
            "utf-8",
        )
        corpus = tmp_path / "d.tok"
        corpus.write_text(
            "#DOC d\nX社\tcompany\n開発\tverbal-nominal\nする\tverb\n#END\n", "utf-8"
        )
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--patterns", str(patterns),
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and "line 2" in err and "dup.pat" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_rule_past_the_element_limit_fails_with_line(self, tmp_path, capsys):
        # Matching it used to end in a RecursionError traceback.
        patterns = tmp_path / "r.pat"
        patterns.write_text("(R 1 a:strict:N" + " @SKIP" * 1000 + ")\n", "utf-8")
        corpus = tmp_path / "d.tok"
        corpus.write_text("#DOC d\na\tnoun\n#END\n", "utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--patterns", str(patterns),
            "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {patterns}:line 1: rule has 1001 elements, more than 100\n"
        assert not out.exists()

    def test_repeated_concept_map_group_fails_with_line(self, tmp_path, capsys):
        # Like a repeated rule name: a resource file at fault exits 1.
        concept_map = tmp_path / "dup.tsv"
        concept_map.write_text(
            "JointVenture\tJOINT-VENTURE\nJointVenture\tTIE-UP\n", "utf-8"
        )
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--concept-map", str(concept_map),
            "--out", str(out),
        )
        assert code == 1
        assert err == (
            f"error: {concept_map}:line 2: duplicate concept-map group 'JointVenture'\n"
        )
        assert not out.exists()

    def test_pattern_fault_reported_before_designator_fault(self, tmp_path, capsys):
        # The resource files are parsed in flag order, --patterns before
        # --designators.
        patterns = tmp_path / "bad.pat"
        patterns.write_text("(R 1)\n", "utf-8")
        designators = tmp_path / "bad.lex"
        designators.write_text("社\n", "utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--designators", str(designators),
            "--patterns", str(patterns),
            "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {patterns}:line 1: rule needs a name, an index number, and elements\n"
        assert not out.exists()

    def test_corpus_directory_without_token_files_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "notes.txt").write_text("#DOC d\nX社\tcompany\n#END\n", "utf-8")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "extract", "--corpus", str(corpus), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: no *.tok files in {corpus}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("dump, doc_id, fits", [
        (["--dump", "registry"], "y" * 238, True),
        # 239 UTF-8 bytes in 81 characters.
        (["--dump", "registry"], "あ" * 79 + "yy", False),
        ([], "y" * 246, True),
        ([], "y" * 247, False),
    ], ids=["dump-238", "dump-239", "plain-246", "plain-247"])
    def test_document_id_too_long_for_a_file_name_fails_before_output(
        self, tmp_path, capsys, dump, doc_id, fits
    ):
        # The longest output name, <id>.registry.txt.tmp or else
        # <id>.tmpl.tmp, must fit in 255 bytes.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.tok").write_text("#DOC a\nX社\tcompany\n#END\n", "utf-8")
        (corpus / "b.tok").write_text(f"#DOC {doc_id}\nY社\tcompany\n#END\n", "utf-8")
        out = tmp_path / "out"
        code, _, err = run(capsys, "extract", "--corpus", str(corpus), "--out", str(out), *dump)
        if fits:
            assert (code, err) == (0, "")
            assert (out / f"{doc_id}.tmpl").is_file()
        else:
            assert code == 1
            assert err == f"error: document id {doc_id!r} is too long for its output files\n"
            assert not out.exists()

    def test_malformed_corpus_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tok"
        bad.write_text("#DOC d\nX社\n#END\n", "utf-8")
        code, _, err = run(
            capsys, "extract", "--corpus", str(bad), "--out", str(tmp_path / "out")
        )
        assert code != 0
        assert "line 2" in err

    @pytest.mark.parametrize(
        "doc_id", ["../escaped", "sub/x", "..\\escaped", "..", ".", "a\x00b"]
    )
    def test_document_id_that_is_not_a_file_name_rejected_with_line(
        self, tmp_path, capsys, doc_id
    ):
        corpus = tmp_path / "corpus.tok"
        corpus.write_text(
            f"#DOC fine\nX社\tcompany\n#END\n#DOC {doc_id}\nY社\tcompany\n#END\n", "utf-8"
        )
        out = tmp_path / "run" / "out"
        code, _, err = run(capsys, "extract", "--corpus", str(corpus), "--out", str(out))
        assert code == 1
        assert err.startswith("error: ")
        assert f"{corpus}:line 4: document id {doc_id!r} is not a plain file name" in err
        assert "Traceback" not in err
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p != corpus]
        assert all(out in p.parents for p in written), written

    def test_corpus_byte_not_utf8_reported_with_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad.tok"
        corpus.write_bytes("#DOC d\nX社\tcompany\n".encode() + b"Y\xff\tcompany\n#END\n")
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith(f"error: {corpus}:line 3: byte 0xff is not UTF-8")
        assert "Traceback" not in err

    def test_patterns_byte_not_utf8_reported_with_line(self, tmp_path, capsys):
        patterns = tmp_path / "bad.pat"
        patterns.write_bytes(b"# rules\n\xe6\n")
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--patterns", str(patterns),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith(f"error: {patterns}:line 2: byte 0xe6 is not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key", ["corpus", "out", "concepts", "patterns", "designators", "concept_map"]
    )
    def test_config_path_holding_nul_rejected(self, tmp_path, capsys, key):
        values = {"corpus": str(DATA / "corpus" / "tanabe_merck.tok"),
                  "out": str(tmp_path / "out")}
        values[key] = "p\0q"
        flags = [arg for k, v in values.items() for arg in ("--" + k.replace("_", "-"), v)]
        code, stdout, err = run(capsys, "extract", *flags)
        assert (code, stdout) == (2, "")
        assert err == f"error: {key} path 'p\\x00q' holds a NUL byte\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_regular_file_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n", "utf-8")
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err
        assert out.read_text("utf-8") == "not a directory\n"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        # A directory where the template goes makes the final rename fail.
        out = tmp_path / "out"
        (out / "tanabe_merck.tmpl").mkdir(parents=True)
        code, _, err = run(
            capsys,
            "extract",
            "--corpus", str(DATA / "corpus" / "tanabe_merck.tok"),
            "--out", str(out),
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not list(out.glob("*.tmp"))
        assert sorted(p.name for p in out.iterdir()) == ["tanabe_merck.tmpl"]

    def test_dump_stages_written(self, tmp_path, capsys):
        # All four stages of every fixture, and the templates of the two
        # fixtures that have no golden, pinned byte for byte.
        out = tmp_path / "out"
        dumps = [arg for stage in DUMP_STAGES for arg in ("--dump", stage)]
        code, _, err = run(
            capsys, "extract", "--corpus", str(DATA / "corpus"), "--out", str(out), *dumps
        )
        assert code == 0, err
        fixtures = sorted(p.stem for p in (DATA / "corpus").glob("*.tok"))
        pinned = sorted(p.name for p in (DATA / "dumps").iterdir())
        assert pinned == sorted(
            [f"{name}.{stage}.txt" for name in fixtures for stage in DUMP_STAGES]
            + ["pronouns_a.tmpl", "pronouns_b.tmpl"]
        )
        for name in pinned:
            assert (out / name).read_bytes() == (DATA / "dumps" / name).read_bytes(), name

    def test_dump_stages_written_without_discourse(self, tmp_path, resources):
        # The twin of the test above from the ablation harness: all four
        # stages and the template of every fixture, pinned byte for byte.
        out = tmp_path / "out"
        write_without_discourse(out, resources, DUMP_STAGES)
        fixtures = sorted(p.stem for p in (DATA / "corpus").glob("*.tok"))
        pinned = sorted(p.name for p in (DATA / "dumps_no_discourse").iterdir())
        assert pinned == sorted(
            [f"{name}.{stage}.txt" for name in fixtures for stage in DUMP_STAGES]
            + [f"{name}.tmpl" for name in fixtures]
        )
        for name in pinned:
            want = (DATA / "dumps_no_discourse" / name).read_bytes()
            assert (out / name).read_bytes() == want, name

    @pytest.mark.parametrize("flag", ["--concepts", "--patterns", "--designators",
                                      "--concept-map"])
    def test_resource_flag_replaces_the_packaged_file(self, tmp_path, capsys, flag):
        edited = tmp_path / "edited"
        edited.write_text("# no entries\n", "utf-8")
        dumps = [arg for stage in DUMP_STAGES for arg in ("--dump", stage)]
        outputs = {}
        for name, argv in (("default", ()), ("flag", (flag, str(edited)))):
            out = tmp_path / name
            code, stdout, err = run(capsys, "extract", "--corpus", str(DATA / "corpus"),
                                    "--out", str(out), *dumps, *argv)
            assert (code, stdout, err) == (0, "", "")
            outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["flag"] != outputs["default"]

    def test_no_discourse_mode(self, tmp_path, resources):
        out = tmp_path / "out"
        write_without_discourse(out, resources)
        graph = parse_templates((out / "multi_tieup.tmpl").read_text("utf-8"), "multi_tieup")
        # One tie-up per best pattern match: two joint ventures plus the sale.
        assert len(graph.tieups) == 3
        assert any(t.warning for t in graph.tieups)
        entity_ids = {e.object_id for e in graph.entities}
        assert all(r in entity_ids for t in graph.tieups for r in t.entity_refs)

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            run(capsys, "extract", "--corpus", str(DATA / "corpus"), "--out", str(out))
        for path in sorted(first.iterdir()):
            assert path.read_text("utf-8") == (second / path.name).read_text("utf-8")

    def test_successful_extract_is_silent(self, tmp_path):
        # A fresh interpreter: in-process, pytest's own logging handlers
        # would capture a log line before it reached stderr.
        proc = run_fresh("extract", "--corpus", str(DATA / "corpus"),
                         "--out", str(tmp_path / "out"))
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

    def test_missing_response_directory_fails(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        code, stdout, err = run(capsys, "score", str(missing), str(DATA / "score_key"))
        assert code == 1
        assert stdout == ""
        assert err == f"error: response directory {missing} does not exist\n"

    def test_missing_key_directory_fails(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        code, stdout, err = run(capsys, "score", str(DATA / "score_response"), str(missing))
        assert code == 1
        assert stdout == ""
        assert err == f"error: key directory {missing} does not exist\n"

    def test_response_path_to_a_file_fails(self, capsys):
        path = DATA / "score_response" / "d1.tmpl"
        code, stdout, err = run(capsys, "score", str(path), str(DATA / "score_key"))
        assert code == 1
        assert stdout == ""
        assert err == f"error: response directory {path} is not a directory\n"

    def test_key_path_to_a_file_fails(self, capsys):
        path = DATA / "score_key" / "d1.tmpl"
        code, stdout, err = run(capsys, "score", str(DATA / "score_response"), str(path))
        assert code == 1
        assert stdout == ""
        assert err == f"error: key directory {path} is not a directory\n"

    def test_empty_key_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, stdout, err = run(capsys, "score", str(DATA / "score_response"), str(empty))
        assert code == 1
        assert stdout == ""
        assert err == f"error: no *.tmpl files in {empty}\n"

    def test_empty_response_directory_warns_and_scores(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, stdout, err = run(capsys, "score", str(empty), str(DATA / "score_key"))
        assert code == 0
        assert "warning: no response for" in err
        total = [l for l in stdout.splitlines() if l.startswith("TOTAL")][0]
        assert total.split()[2] == "100.0"  # UND

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

    def test_fixture_pair_report_is_the_golden_text(self, capsys):
        # The whole report, listing and table, byte for byte.
        code, stdout, _ = run(
            capsys, "score", str(DATA / "score_response"), str(DATA / "score_key")
        )
        assert code == 0
        assert stdout == (DATA / "score_report.txt").read_text("utf-8")

    def test_utf8_stdout_prints_the_golden_text(self):
        proc = run_fresh("score", str(DATA / "score_response"), str(DATA / "score_key"),
                         PYTHONIOENCODING="utf-8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / "score_report.txt").read_text("utf-8")

    def test_stdout_that_cannot_encode_the_report_is_one_error_line(self):
        proc = run_fresh("score", str(DATA / "score_response"), str(DATA / "score_key"),
                         PYTHONIOENCODING="latin-1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: stdout encoding iso8859-1 cannot write the report; "
            "set PYTHONIOENCODING=utf-8\n"
        )

    @pytest.mark.parametrize("side", ["response", "key"])
    def test_template_byte_not_utf8_reported_with_line(self, tmp_path, capsys, side):
        for name in ("response", "key"):
            (tmp_path / name).mkdir()
            name_line = b"  NAME: X\xc3\n" if name == side else "  NAME: X社\n".encode()
            (tmp_path / name / "d.tmpl").write_bytes(b"<ENTITY-1> :=\n" + name_line)
        code, _, err = run(capsys, "score", str(tmp_path / "response"), str(tmp_path / "key"))
        assert code == 1
        bad = tmp_path / side / "d.tmpl"
        assert err.startswith(f"error: {bad}:line 2: byte 0xc3 is not UTF-8")
        assert "Traceback" not in err

    def test_misspelled_key_slot_fails_with_line(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        keys.mkdir()
        (keys / "d1.tmpl").write_text("<ENTITY-1> :=\n  NAEM: X社\n", "utf-8")
        code, stdout, err = run(capsys, "score", str(keys), str(keys))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert "d1.tmpl:line 2: unknown ENTITY slot NAEM" in err
        assert "Traceback" not in err

    def test_dangling_key_reference_fails_with_line(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        keys.mkdir()
        (keys / "d1.tmpl").write_text(
            "<TIE_UP-1> :=\n  ENTITIES: <ENTITY-9>\n\n<ENTITY-1> :=\n  NAME: X社\n", "utf-8"
        )
        code, stdout, err = run(capsys, "score", str(keys), str(keys))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert "d1.tmpl:line 2: reference to undefined <ENTITY-9>" in err
        assert "Traceback" not in err

    def test_key_object_number_past_the_digit_limit_fails_with_line(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        keys.mkdir()
        (keys / "d1.tmpl").write_text(f"<ENTITY-{'1' * 5000}> :=\n  NAME: X社\n", "utf-8")
        code, stdout, err = run(capsys, "score", str(keys), str(keys))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert "d1.tmpl:line 1: object number in <ENTITY-111111111111111111...>" in err
        assert "Traceback" not in err


class TestArgs:
    def test_missing_required_flags(self, capsys):
        code = main(["extract"])
        captured = capsys.readouterr()
        assert code == 2
        assert "required" in captured.err

    def test_unknown_dump_stage_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract", "--corpus", "x", "--out", "y", "--dump", "everything"])

    @pytest.mark.parametrize("flag", ["--corpus", "--out"], ids=["only-corpus", "only-out"])
    def test_corpus_and_out_both_required(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        value = {"--corpus": DATA / "corpus", "--out": out}[flag]
        code, stdout, err = run(capsys, "extract", flag, str(value))
        assert (code, stdout) == (2, "")
        assert err == "error: both --corpus and --out are required\n"
        assert not out.exists()

    # Each option was once read and later removed: --no-discourse (the
    # ablation lives in tests/ablation.py), the --config file, and --jobs.
    @pytest.mark.parametrize("argv", [
        ["--no-discourse"], ["--config", "run.conf"], ["--jobs", "4"],
    ], ids=["no-discourse", "config", "jobs"])
    def test_removed_option_is_gone(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--corpus", str(DATA / "corpus"), "--out", str(out), *argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
        assert not out.exists()
        assert RunConfig._fields == ("corpus", "out", *(r.key for r in RESOURCES), "dump")


class TestDiscourseContribution:
    """The paper's central claim on the fixture corpus, every document of
    which has a hand-written key: discourse processing lifts TOTAL P&R from
    70.9, the ablation harness's row, to 100.0."""

    @pytest.mark.parametrize("ablation, total", [
        (False, "TOTAL                0.0     0.0     0.0     0.0   100.0   100.0   100.0"),
        (True, "TOTAL               43.5    12.8    34.9     4.9    83.0    61.9    70.9"),
    ], ids=["discourse", "no_discourse"])
    def test_total_row(self, tmp_path, capsys, resources, ablation, total):
        out = tmp_path / "out"
        if ablation:
            write_without_discourse(out, resources)
        else:
            code, _, _ = run(capsys, "extract", "--corpus", str(DATA / "corpus"),
                             "--out", str(out))
            assert code == 0
        code, stdout, err = run(capsys, "score", str(out), str(DATA / "golden"))
        assert (code, err) == (0, "")
        assert total in stdout.splitlines()


BOM = b"\xef\xbb\xbf"


def _data_lines_first(text: str) -> str:
    return "".join(l for l in text.splitlines(keepends=True) if not l.startswith("#"))


def _activity_map_first(text: str) -> str:
    lines = _data_lines_first(text).splitlines(keepends=True)
    return "".join(sorted(lines, key=lambda l: not l.startswith("EconomicActivity\t")))


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of any input file's text."""

    def extract(self, tmp_path, capsys, name, *argv) -> dict[str, bytes]:
        out = tmp_path / name
        code, _, err = run(capsys, "extract", "--out", str(out), *argv)
        assert (code, err) == (0, "")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("flag, name, edit", [
        ("--designators", "designators.lex", str),
        ("--designators", "designators.lex", _data_lines_first),
        ("--concepts", "concepts.lex", str),
        ("--concepts", "concepts.lex", _data_lines_first),
        ("--patterns", "patterns.pat", str),
        ("--patterns", "patterns.pat", _data_lines_first),
        ("--concept-map", "concept_map.tsv", str),
        ("--concept-map", "concept_map.tsv", _activity_map_first),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_resource_with_mark_reads_the_same(self, tmp_path, capsys, flag, name, edit):
        data = edit((PACKAGED / name).read_text("utf-8")).encode()
        plain, marked = tmp_path / ("plain_" + name), tmp_path / ("marked_" + name)
        plain.write_bytes(data)
        marked.write_bytes(BOM + data)
        corpus = ("--corpus", str(DATA / "corpus"), "--dump", "matches")
        assert (self.extract(tmp_path, capsys, "marked", *corpus, flag, str(marked))
                == self.extract(tmp_path, capsys, "plain", *corpus, flag, str(plain)))

    def test_token_file_with_mark_reads_the_same(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in sorted((DATA / "corpus").glob("*.tok")):
            (corpus / path.name).write_bytes(BOM + path.read_bytes())
        marked = self.extract(tmp_path, capsys, "marked", "--corpus", str(corpus),
                              "--dump", "matches")
        plain = self.extract(tmp_path, capsys, "plain", "--corpus", str(DATA / "corpus"),
                             "--dump", "matches")
        assert marked == plain

    def test_key_template_with_mark_scores_the_same(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        keys.mkdir()
        for path in sorted((DATA / "score_key").glob("*.tmpl")):
            (keys / path.name).write_bytes(BOM + path.read_bytes())
        code, stdout, _ = run(capsys, "score", str(DATA / "score_response"), str(keys))
        assert code == 0
        assert stdout == (DATA / "score_report.txt").read_text("utf-8")

    def test_decode_error_after_mark_names_byte_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad.tok"
        corpus.write_bytes(BOM + "#DOC d\nX社\tcompany\n".encode() + b"Y\xff\tcompany\n#END\n")
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith(f"error: {corpus}:line 3: byte 0xff is not UTF-8")


def test_decode_and_parse_errors_count_lines_alike(tmp_path, capsys):
    # U+0085 ends a line for str.splitlines, which every reader uses.
    head = "#DOC d\nA\tnoun\x85B\tnoun\n".encode()
    errors = []
    for name, bad_line in (("decode", b"\xff\tnoun\n"), ("parse", b"C noun\n")):
        corpus = tmp_path / f"{name}.tok"
        corpus.write_bytes(head + bad_line + b"#END\n")
        code, _, err = run(
            capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 1
        errors.append(err)
    assert errors[0].startswith(f"error: {tmp_path / 'decode.tok'}:line 4: byte 0xff")
    assert errors[1].startswith(f"error: {tmp_path / 'parse.tok'}:line 4: expected")


def test_atomic_write_reports_the_write_error_not_the_clean_up(tmp_path, monkeypatch):
    from tieupkit.cli import _atomic_write

    def refuse_write(self, *args, **kwargs):
        raise OSError("disk full")

    def refuse_unlink(self, missing_ok=False):
        raise PermissionError("cannot delete")

    monkeypatch.setattr(Path, "write_text", refuse_write)
    monkeypatch.setattr(Path, "unlink", refuse_unlink)
    with pytest.raises(OSError, match="disk full"):
        _atomic_write(tmp_path / "doc.tmpl", "text")
    assert list(tmp_path.iterdir()) == []
