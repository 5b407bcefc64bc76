import hashlib
import importlib.util
import sys
from pathlib import Path

from weyldl.criterion import CheckResult

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCertifySmallRank:
    def test_rejection_fails_the_run(self, monkeypatch, capsys):
        """A certificate the checker rejects is reported with its group, class
        and route, and main() returns 1; the verdict is not an assert."""
        script = _load("certify_small_rank")
        monkeypatch.setattr(script, "GROUPS", [("A", 2, 1)])
        monkeypatch.setattr(sys, "argv", ["certify_small_rank.py"])
        monkeypatch.setattr(
            script, "check_certificate", lambda cert: CheckResult(False, "rejected for the test")
        )
        assert script.main() == 1
        out = capsys.readouterr().out
        assert "A2 class 00 (()): solver certificate rejected: rejected for the test" in out
        assert "A2: 3 classes, 6 certificates rejected" in out

    def test_all_accepted(self, monkeypatch, capsys):
        script = _load("certify_small_rank")
        monkeypatch.setattr(script, "GROUPS", [("A", 2, 1), ("G", 2, 2)])
        monkeypatch.setattr(sys, "argv", ["certify_small_rank.py"])
        assert script.main() == 0
        out = capsys.readouterr().out
        assert "A2: 3 classes certified by both routes" in out
        assert "2G2: 4 classes certified by both routes" in out

    def test_digest_is_that_of_the_files_written(self, monkeypatch, capsys, tmp_path):
        """The total line ends with the SHA-256 of the certificates that an
        --out-dir run writes, read back in class-list order, solver first."""
        script = _load("certify_small_rank")
        monkeypatch.setattr(script, "GROUPS", [("A", 2, 1), ("G", 2, 2)])
        monkeypatch.setattr(sys, "argv", ["certify_small_rank.py", "--out-dir", str(tmp_path)])
        assert script.main() == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("7 classes total")
        digest, count = hashlib.sha256(), 0
        for name, classes in (("A2", 3), ("2G2", 4)):
            for k in range(classes):
                for route in ("solver", "constructive"):
                    digest.update((tmp_path / f"{name}-class{k:02d}-{route}.json").read_bytes())
                    count += 1
        assert count == len(list(tmp_path.iterdir())) == 14
        assert last.endswith(f", sha256 {digest.hexdigest()}")
