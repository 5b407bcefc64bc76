import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl import cli
from weyldl.criterion import FORM_FORWARD, Certificate
from weyldl.exactnum import SQRT2, qext

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "weyldl", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestEnumerate:
    def test_g2(self, tmp_path):
        out = run_cli("enumerate", "--family", "G", "--rank", "2", cwd=tmp_path)
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.startswith("rep=")]
        assert len(lines) == 6
        assert sum("cuspidal=true" in l for l in lines) == 3

    def test_a1(self, tmp_path):
        out = run_cli("enumerate", "--family", "A", "--rank", "1", cwd=tmp_path)
        assert out.returncode == 0
        assert len([l for l in out.stdout.splitlines() if l.startswith("rep=")]) == 2

    def test_triality_rows(self, tmp_path):
        out = run_cli(
            "enumerate", "--family", "D", "--rank", "4", "--twist", "3", cwd=tmp_path
        )
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.startswith("rep=")]
        assert len(lines) == 7
        assert sum("cuspidal=true" in l for l in lines) == 4
        # Minimal lengths of the cuspidal classes match the tabulated rows.
        lengths = sorted(
            int(l.split("min_length=")[1].split()[0])
            for l in lines
            if "cuspidal=true" in l
        )
        assert lengths == [2, 4, 6, 8]

    def test_usage_error(self, tmp_path):
        out = run_cli("enumerate", "--family", "Z", "--rank", "2", cwd=tmp_path)
        assert out.returncode == 2

    def test_columns(self, tmp_path):
        """Representative, minimal length and cuspidal flag; no class size."""
        out = run_cli("enumerate", "--family", "A", "--rank", "2", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "rep=[e] min_length=0 cuspidal=false",
            "rep=[1] min_length=1 cuspidal=false",
            "rep=[1,2] min_length=2 cuspidal=true",
        ]

    @pytest.mark.parametrize("verb,family,rank,roots", [
        ("enumerate", "A", 16, 136), ("enumerate", "B", 12, 144), ("shift-graph", "A", 16, 136),
    ])
    def test_too_many_roots_for_the_encoding(self, tmp_path, verb, family, rank, roots):
        rep = ("--class-rep", "1") if verb == "shift-graph" else ()
        out = run_cli(verb, "--family", family, "--rank", str(rank), *rep, cwd=tmp_path)
        assert out.returncode == 1
        assert out.stderr.strip() == (f"error: {family}{rank} has {roots} positive roots, "
                                      "above the limit of 127 that element keys hold")

    def test_a15_fits_the_encoding(self, tmp_path):
        """A15 has 120 positive roots, within the limit."""
        out = run_cli("shift-graph", "--family", "A", "--rank", "15", "--class-rep", "1",
                      cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip() == "# 1 nodes, 0 edges"

    @pytest.mark.parametrize("rank,classes,cuspidal", [
        (7, 60, 12), pytest.param(8, 112, 30, marks=pytest.mark.slow)])
    def test_e7_e8_class_counts(self, tmp_path, rank, classes, cuspidal):
        """E7 and E8 list their classes from their seeds: 60 and 112, of which
        12 and 30 are cuspidal (Geck-Pfeiffer 2000, App. B)."""
        out = run_cli("enumerate", "--family", "E", "--rank", str(rank), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip().endswith(f"# {classes} classes")
        lines = [l for l in out.stdout.splitlines() if l.startswith("rep=")]
        assert len(lines) == classes
        assert sum("cuspidal=true" in l for l in lines) == cuspidal

    @pytest.mark.parametrize("verb", ["enumerate", "certify", "shift-graph"])
    def test_no_budget_option(self, tmp_path, verb):
        """No verb takes --budget: every shift walk has the one budget WALK_BUDGET."""
        rep = ("--class-rep", "1") if verb != "enumerate" else ()
        out = run_cli(verb, "--family", "A", "--rank", "2", *rep, "--budget", "10", cwd=tmp_path)
        assert out.returncode == 2
        assert out.stderr.strip().endswith("error: unrecognized arguments: --budget 10")


class TestCertifyCheck:
    def test_suzuki_round_trip(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        out = run_cli(
            "certify", "--family", "B", "--rank", "2", "--twist", "2",
            "--class-rep", "1", "--q", "sqrt2", "--out", str(cert_path),
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(cert_path.read_text())
        assert payload["format_version"] == 2
        assert payload["q"] == ["0", "1", 2]
        assert payload["group"] == {"family": "B", "rank": 2, "twist": 2}
        assert payload["form"] == "lemma-1.11"
        check = run_cli("check", str(cert_path), cwd=tmp_path)
        assert check.returncode == 0
        assert check.stdout.startswith("accept")

    def test_check_rejects_tampering(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        run_cli(
            "certify", "--family", "A", "--rank", "2", "--class-rep", "1,2",
            "--out", str(cert_path), cwd=tmp_path,
        )
        payload = json.loads(cert_path.read_text())
        payload["mu"][0] = "-99"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = run_cli("check", str(bad), cwd=tmp_path)
        assert out.returncode == 1
        assert "reject" in out.stderr

    def test_check_rejects_mixed_radicands(self, tmp_path):
        # q = 2 with mu = (1 + sqrt2, 1 + sqrt3): each coordinate adds to q,
        # but no slack can hold both radicands.
        payload = {
            "format_version": 1,
            "group": {"family": "A", "rank": 2, "twist": 1},
            "direction": "delta", "q": {"a": "2/1", "b": "0/1", "d": 1},
            "w": [1, 2], "form": "lemma-1.11",
            "mu": [{"a": "1/1", "b": "1/1", "d": 2}, {"a": "1/1", "b": "1/1", "d": 3}],
        }
        bad = tmp_path / "mixed.json"
        bad.write_text(json.dumps(payload))
        out = run_cli("check", str(bad), cwd=tmp_path)
        assert out.returncode == 1
        assert out.stderr.strip() == (
            "reject: incompatible exact numbers: cannot combine sqrt(2) with sqrt(3)"
        )

    def test_check_rejects_garbage(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{]")
        out = run_cli("check", str(bad), cwd=tmp_path)
        assert out.returncode == 1

    def test_check_rejects_non_utf8_file(self, tmp_path):
        bad = tmp_path / "binary.json"
        bad.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x01]))
        out = run_cli("check", str(bad), cwd=tmp_path)
        assert out.returncode == 1
        assert out.stderr.strip() == "reject: certificate is not UTF-8 text"
        assert out.stdout == ""

    def test_check_rejects_oversized_file(self, tmp_path):
        """A file longer than any certificate is refused before it is parsed."""
        big = tmp_path / "big.json"
        big.write_text('{"pad": "' + "0" * (2 << 20) + '"}')
        out = run_cli("check", str(big), cwd=tmp_path)
        assert out.returncode == 1
        assert out.stderr.strip() == "reject: certificate longer than 1048576 characters"
        assert out.stdout == ""

    def test_check_many_files_in_one_process(self, tmp_path):
        """``check`` takes many files: one verdict line per file, in order and led by the
        file's name, accepts on stdout and rejections on stderr; exit 1 when any file
        is rejected.  One file alone gets the line without its name."""
        (tmp_path / "good.json").write_bytes(_VALID)
        (tmp_path / "bad.json").write_text("{]")
        out = run_cli("check", "good.json", "bad.json", "missing.json", "good.json",
                      cwd=tmp_path)
        assert out.returncode == 1
        assert out.stdout == "good.json: accept (3 rows)\ngood.json: accept (3 rows)\n"
        bad, missing = out.stderr.splitlines()
        assert bad.startswith("bad.json: reject: not JSON: ")
        assert missing.startswith("missing.json: reject: [Errno 2] ")
        out = run_cli("check", "good.json", "good.json", cwd=tmp_path)
        assert (out.returncode, out.stderr) == (0, "")
        out = run_cli("check", "good.json", cwd=tmp_path)
        assert (out.returncode, out.stdout, out.stderr) == (0, "accept (3 rows)\n", "")

    def test_zero_denominator_q_is_an_error(self, tmp_path):
        for literal in ("1/0", "1/0*sqrt2"):
            out = run_cli(
                "certify", "--family", "A", "--rank", "2", "--class-rep", "1,2",
                "--q", literal, cwd=tmp_path,
            )
            assert out.returncode == 1, out.stderr
            assert out.stderr.startswith("error: bad q literal")
            assert "Traceback" not in out.stderr

    def test_q_outside_the_grammar_is_an_error(self, tmp_path):
        """1e5000 was read as a 5001-digit integer, solved with, and then failed
        at serialization; now it is refused before any work."""
        for literal in ("1e5000", "1e3", "1.5"):
            out = run_cli(
                "certify", "--family", "A", "--rank", "2", "--class-rep", "1,2",
                "--q", literal, cwd=tmp_path,
            )
            assert out.returncode == 1, out.stderr
            assert out.stderr.strip() == f"error: bad q literal {literal!r}"

    def test_class_rep_letters_are_validated(self, tmp_path):
        # On A2 the letters are 1 and 2: 0 and 3 are out of range, x is no letter.
        for rep, message in (("0", "error: word letter 0 out of range 1..2"),
                             ("3", "error: word letter 3 out of range 1..2"),
                             ("x", "error: bad word 'x'")):
            out = run_cli(
                "certify", "--family", "A", "--rank", "2", "--class-rep", rep, cwd=tmp_path,
            )
            assert out.returncode == 1, (rep, out.stderr)
            assert out.stderr.strip() == message
            assert out.stdout == ""

    def test_rank_beyond_the_checker_is_an_error(self, tmp_path):
        """A rank the checker cannot read is a usage error, not a falsification."""
        out = run_cli("certify", "--family", "A", "--rank", "9",
                      "--class-rep", "1,2,3,4,5,6,7,8,9", cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error:")
        assert out.stderr.strip() == "error: rank must be in 1..8"
        assert "FALSIFICATION" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("rank,rep,length", [
        (7, "4,1,2,3,4", 3),  # a longer word of the class of 1,2,3
        (8, "1,2,3,4,5,6,7,8", 8),  # the Coxeter class
        (8, "w0", 120),  # the class of w0 = -1
    ])
    def test_e7_e8_round_trip(self, tmp_path, rank, rep, length):
        """certify then check, each in a fresh interpreter, on classes of groups
        too large to enumerate; both exit 0."""
        if rep == "w0":
            from weyldl.weyl import weyl_group

            W = weyl_group("E", rank)
            rep = ",".join(map(str, W.longest_element(range(1, rank + 1)).word))
        cert_path = tmp_path / "cert.json"
        out = run_cli("certify", "--family", "E", "--rank", str(rank), "--class-rep", rep,
                      "--out", str(cert_path), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert len(json.loads(cert_path.read_text())["w"]) == length
        check = run_cli("check", str(cert_path), cwd=tmp_path)
        assert check.returncode == 0, check.stderr
        assert check.stdout.startswith("accept")

    def test_byte_identical_runs(self, tmp_path):
        args = (
            "certify", "--family", "G", "--rank", "2", "--class-rep", "1,2",
        )
        a = run_cli(*args, cwd=tmp_path).stdout
        b = run_cli(*args, cwd=tmp_path).stdout
        assert a == b and a.strip()


# A certificate ``check`` accepts (the Suzuki class of 2B2), for splicing bytes into.
_VALID = Certificate(
    family="B", rank=2, twist=2, direction="delta", q=SQRT2, w=(1,),
    form=FORM_FORWARD, mu=(qext(3), qext(1)),
).to_json().encode()
_SPLICED = st.builds(
    lambda i, j, data: _VALID[:min(i, j)] + data + _VALID[max(i, j):],
    st.integers(0, len(_VALID)), st.integers(0, len(_VALID)), st.binary(max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048) | _SPLICED)
def test_check_gives_a_verdict_on_any_bytes(data):
    """Any file of up to 2 KiB, raw or spliced into a valid certificate, gets a
    verdict: exit 0 or 1, never a usage ``error:`` and never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["check", path])
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith("reject: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestVerifyPaper:
    def test_f4_filter(self, tmp_path):
        out = run_cli("verify-paper", "--filter", "F4", cwd=tmp_path)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "total: 7/7 cases pass" in out.stdout

    @pytest.mark.parametrize("text", ["ZZ", "F5"])
    def test_filter_matching_no_row_is_an_error(self, tmp_path, text):
        """A filter that selects no catalog row exits 1 with a reason; it prints
        no "0/0 cases pass" total."""
        out = run_cli("verify-paper", "--filter", text, cwd=tmp_path)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.strip() == f"error: no catalog row matches filter '{text}'"

    def test_report_json(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli(
            "verify-paper", "--filter", "2B2", "--out", str(path), cwd=tmp_path
        )
        assert out.returncode == 0
        payload = json.loads(path.read_text())
        assert [c["label"] for c in payload["cases"]] == ["2B2 case 1", "2B2 case 2"]

    @pytest.mark.parametrize("literal", ["1", "1/2*sqrt3"])
    def test_q_below_the_minimum_is_an_error(self, tmp_path, literal):
        """A q below the type's minimum sqrt 2, also one over sqrt 3, is refused
        with a reason; no row is reported as failing."""
        out = run_cli("verify-paper", "--filter", "2B2", "--q", literal, cwd=tmp_path)
        assert out.returncode == 1
        assert "FAIL" not in out.stdout
        assert out.stderr.strip() == "error: q below the minimal value for B2 twist 2"

    def test_default_decides_e7_minimality(self, tmp_path):
        """The one tier decides (v) on an E7 row as "pass"; no verb takes
        --slow, so it is a usage error with exit 2."""
        path = tmp_path / "report.json"
        out = run_cli("verify-paper", "--filter", "E7 case 2", "--out", str(path), cwd=tmp_path)
        assert out.returncode == 0, out.stdout + out.stderr
        (case,) = json.loads(path.read_text())["cases"]
        assert case["subchecks"]["vw1_min_full"] == "pass"
        out = run_cli("verify-paper", "--filter", "E7 case 2", "--slow", cwd=tmp_path)
        assert out.returncode == 2
        assert "unrecognized arguments: --slow" in out.stderr
        (verbs,) = cli.build_parser()._subparsers._group_actions
        assert len(verbs.choices) == 5
        assert not [verb for verb, p in verbs.choices.items() if "--slow" in p._option_string_actions]

    def test_walk_over_the_budget_is_an_error(self, monkeypatch, capsys):
        """A level walk past the budget stops the replay with exit 1; it is not
        a skipped subcheck of a passing row.  In the 2F4 rows minimality
        starts no walk, and the budget trips in the walk of ``minimal_level``
        that lists a row's spade candidates."""
        from weyldl import conjugacy

        monkeypatch.setattr(conjugacy, "WALK_BUDGET", 1)
        for memo in ("_MINIMALITY_MEMO", "_CUSPIDAL_MEMO"):
            monkeypatch.setattr(conjugacy, memo, {})
        assert cli.main(["verify-paper", "--filter", "2F4"]) == 1
        assert capsys.readouterr().err.startswith("budget exceeded: ")


class TestShiftGraph:
    def test_a2_coxeter(self, tmp_path):
        out = run_cli(
            "shift-graph", "--family", "A", "--rank", "2", "--class-rep", "1,2",
            cwd=tmp_path,
        )
        assert out.returncode == 0
        assert "# 2 nodes, 2 edges" in out.stderr
        assert '"1,2" -> "2,1"' in out.stdout

    def test_dot_file(self, tmp_path):
        path = tmp_path / "graph.dot"
        out = run_cli(
            "shift-graph", "--family", "G", "--rank", "2", "--class-rep", "1,2",
            "--dot", str(path), cwd=tmp_path,
        )
        assert out.returncode == 0
        assert path.read_text().startswith("digraph shifts {")

    @pytest.mark.parametrize("family,rank,twist,rep,counts,digest", [
        ("A", 3, 1, "1,2,3", "# 4 nodes, 10 edges",
         "d37bcde6c1ab7aa6e4ade735416cfe8cb324cd3b89f853b00e16255b85345164"),
        ("F", 4, 2, "1,2,3,4,3,2", "# 21 nodes, 52 edges",
         "6180d45cec529ab8381aeb6e87b694d471b5821395a0ac587ae387927d570339"),
    ])
    def test_dot_digest(self, tmp_path, family, rank, twist, rep, counts, digest):
        """The DOT output is byte-identical to the one pinned by its SHA-256."""
        out = run_cli(
            "shift-graph", "--family", family, "--rank", str(rank), "--twist", str(twist),
            "--class-rep", rep, cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip() == counts
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest

    def test_class_rep_letters_are_validated(self, tmp_path):
        for rep in ("0", "3", "x"):
            out = run_cli(
                "shift-graph", "--family", "A", "--rank", "2", "--class-rep", rep, cwd=tmp_path,
            )
            assert out.returncode == 1, (rep, out.stderr)
            assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
