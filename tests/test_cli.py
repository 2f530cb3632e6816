import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcl import DEFAULT_SEED
from qcl.cli import _canonical_request, _flatten, _jsonable, _load_config
from qcl.errors import VerificationError

QCL = [sys.executable, "-m", "qcl.cli"]


def run_cli(args, tmp_path, check=True, cache=None):
    env = dict(os.environ)
    env["QCL_CACHE_DIR"] = str(cache if cache is not None
                               else tmp_path / "cache")
    proc = subprocess.run(QCL + args, capture_output=True, env=env)
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


class TestJsonConventions:
    def test_ints_become_strings(self):
        assert _jsonable({"count": 2 ** 80}) == {"count": str(2 ** 80)}

    def test_fractions_become_pairs(self):
        assert _jsonable(Fraction(3, 7)) == {"num": "3", "den": "7"}

    def test_float_only_in_approx_fields(self):
        assert _jsonable({"x_approx": 1.5}) == {"x_approx": 1.5}
        assert _jsonable({"e_stderr": 0.1}) == {"e_stderr": 0.1}
        with pytest.raises(VerificationError):
            _jsonable({"x": 1.5})

    def test_canonical_request_sorted_and_stable(self):
        a = _canonical_request("count", {"n": 2, "X": 1}, 0, None)
        b = _canonical_request("count", {"X": 1, "n": 2}, 0, None)
        assert a == b
        assert a.index('"X"') < a.index('"n"')

    def test_flatten(self):
        rows = _flatten({"a": ["1", "2"], "b": {"c": True}})
        assert rows == [("a[0]", "1"), ("a[1]", "2"), ("b.c", True)]


class TestConfig:
    def test_parse(self, tmp_path):
        p = tmp_path / "qcl.cfg"
        p.write_text("# comment\nbudget = 1000\ncache_dir=/tmp/x\n")
        cfg = _load_config(str(p))
        assert cfg == {"budget": "1000", "cache_dir": "/tmp/x"}


class TestSubcommands:
    def test_gauss_identity_case(self, tmp_path):
        out = run_cli(["gauss", "--p", "3", "--va", "0", "--vt", "0",
                       "--xi", "0"], tmp_path)
        doc = json.loads(out.stdout)
        assert doc["schema"] == "v1"
        assert doc["result"]["value"] == {"num": "1", "den": "1"}

    def test_count_both_engines(self, tmp_path):
        out = run_cli(["count", "--n", "2", "--upsilon", "+-", "--x", "1",
                       "--engine", "both"], tmp_path)
        doc = json.loads(out.stdout)
        assert doc["result"]["equal"] is True
        assert doc["result"]["conv_count"] == doc["result"]["brute_count"]

    def test_repnum(self, tmp_path):
        out = run_cli(["repnum", "--max", "30"], tmp_path)
        doc = json.loads(out.stdout)
        assert doc["result"]["all_equal"] is True

    def test_lattice(self, tmp_path):
        out = run_cli(["lattice", "--k", "3", "--m", "3", "--eta", "1,1,1,0",
                       "--minima"], tmp_path)
        doc = json.loads(out.stdout)
        assert doc["result"]["index"] == "9"

    def test_delta_check_cancellation(self, tmp_path):
        out = run_cli(["delta-check", "--q", "8", "--alpha", "1,0,0,0"],
                      tmp_path)
        doc = json.loads(out.stdout)
        assert doc["result"]["cancelled"] is True

    def test_delta_check_empty_support_difference_is_rational(self, tmp_path):
        # no admissible modulus survives: the exact zero keeps the rational
        # encoding that every other shift prints
        out = run_cli(["delta-check", "--q", "8", "--alpha", "3,4,4,2"],
                      tmp_path)
        res = json.loads(out.stdout)["result"]
        assert res["terms"] == ["0", "0"]
        assert res["difference"] == {"num": "0", "den": "1"}
        assert res["cancelled"] is True

    def test_csv_output(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        run_cli(["--csv", str(csv_path), "repnum", "--m", "3"], tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "field,value"
        assert any(line.startswith("enumerated,4") for line in lines)


class TestExitCodes:
    def test_precondition_is_two(self, tmp_path):
        proc = run_cli(["audit", "nosuch"], tmp_path, check=False)
        assert proc.returncode == 2
        proc = run_cli(["count", "--n", "2", "--upsilon", "+*", "--x", "1"],
                       tmp_path, check=False)
        assert proc.returncode == 2

    def test_budget_is_three(self, tmp_path):
        proc = run_cli(["count", "--n", "9", "--x", "8"], tmp_path,
                       check=False)
        assert proc.returncode == 3

    def test_grid_cap_is_three(self, tmp_path):
        # Y mod 343 would be a grid of 7^12 matrices
        proc = run_cli(["--no-cache", "expsum", "--p", "7", "--delta",
                        "343,0,0,1", "--gamma", "0,0,0,0"], tmp_path,
                       check=False)
        assert proc.returncode == 3

    def test_verification_is_four(self, tmp_path, monkeypatch, capsys):
        import click
        from qcl import cli

        ctx = click.Context(cli.main, obj={
            "no_cache": True, "csv": None, "threads": 1,
            "seed": 0, "budget": None, "config": {}})

        def bad():
            raise VerificationError("broken identity")

        with pytest.raises(SystemExit) as exc:
            cli._emit(ctx, "count", {"n": 1}, bad)
        assert exc.value.code == 4

    @staticmethod
    def _crashing_audit(cache, monkeypatch):
        import click
        from qcl import audits, cli

        monkeypatch.setenv("QCL_CACHE_DIR", str(cache))
        ctx = click.Context(cli.main, obj={
            "no_cache": False, "csv": None, "threads": 1,
            "seed": 0, "budget": None, "config": {}})

        def crash():
            raise TypeError("unsupported seed type")

        with pytest.raises(SystemExit) as exc:
            cli._emit(ctx, "audit", {"suite": "crash"},
                      lambda: audits._run_checks("crash", [("boom", crash)]))
        return exc.value.code

    def test_crashing_check_is_failed_verdict(self, tmp_path, monkeypatch,
                                              capsysbinary):
        code = self._crashing_audit(tmp_path / "cache", monkeypatch)
        assert code == 4
        doc = json.loads(capsysbinary.readouterr().out)
        result = doc["result"]
        assert result["passed"] is False
        [check] = result["checks"]
        assert check["passed"] is False
        assert check["error"] == "TypeError: unsupported seed type"

    def test_failed_audit_is_not_cached(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        assert self._crashing_audit(cache, monkeypatch) == 4
        assert not cache.exists() or not any(cache.iterdir())


class TestDeterminismAndCache:
    def test_cache_roundtrip_identical_bytes(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["count", "--n", "3", "--upsilon", "++-", "--x", "1",
                "--engine", "both"]
        cold = run_cli(args, tmp_path, cache=cache)
        assert not cold.stderr.decode().startswith("cache hit")
        warm = run_cli(args, tmp_path, cache=cache)
        assert "cache hit" in warm.stderr.decode()
        nocache = run_cli(["--no-cache"] + args, tmp_path, cache=cache)
        assert cold.stdout == warm.stdout == nocache.stdout
        assert len(list(cache.glob("*.json"))) == 1

    def test_entry_from_other_code_is_a_miss(self, tmp_path, monkeypatch,
                                             capsysbinary):
        import click
        from qcl import cli

        monkeypatch.setenv("QCL_CACHE_DIR", str(tmp_path / "cache"))
        ctx = click.Context(cli.main, obj={
            "no_cache": False, "csv": None, "threads": 1,
            "seed": 0, "budget": None, "config": {}})

        def run(density):
            with pytest.raises(SystemExit) as exc:
                cli._emit(ctx, "density", {"n": 24},
                          lambda: {"density": density})
            assert exc.value.code == 0
            out, err = capsysbinary.readouterr()
            return json.loads(out), err.decode()

        digest = cli._code_digest
        monkeypatch.setattr(cli, "_code_digest", lambda: "an older build")
        stale, _ = run(Fraction(1, 3))
        monkeypatch.setattr(cli, "_code_digest", digest)
        fresh, err = run(Fraction(1))
        assert "cache hit" not in err
        assert fresh["result"]["density"] == {"num": "1", "den": "1"}
        # the printed hash names the request alone
        assert fresh["request_hash"] == stale["request_hash"]
        # the current code's entry now serves the request, not the stale one
        warm, err = run(Fraction(2))
        assert "cache hit" in err
        assert warm == fresh
        # writing the current code's entry evicted the older build's one
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1
        assert entries[0].name.startswith(fresh["request_hash"] + "-")

    def test_warm_run_at_same_code_hits(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["density", "--place", "split", "--p", "3", "--m", "1",
                "--n", "24"]
        cold = run_cli(args, tmp_path, cache=cache)
        assert "cache hit" not in cold.stderr.decode()
        warm = run_cli(args, tmp_path, cache=cache)
        assert "cache hit" in warm.stderr.decode()
        assert warm.stdout == cold.stdout
        doc = json.loads(cold.stdout)
        assert doc["result"]["density"] == {
            "num": "26588814361405230188827",
            "den": "26588814358957503287787"}
        request = _canonical_request(
            "density", {"place": "split", "p": 3, "m": 1, "n": 24,
                        "engine": "conv"}, DEFAULT_SEED, None)
        assert doc["request_hash"] == \
            hashlib.sha256(request.encode()).hexdigest()[:32]

    def test_threads_invariant_audit(self, tmp_path):
        one = run_cli(["--no-cache", "--threads", "1", "audit", "counting"],
                      tmp_path)
        four = run_cli(["--no-cache", "--threads", "4", "audit", "counting"],
                       tmp_path)
        assert one.stdout == four.stdout
        doc = json.loads(one.stdout)
        assert doc["result"]["passed"] is True

    def test_seed_changes_hash_not_verdict(self, tmp_path):
        a = run_cli(["--seed", "1", "audit", "densities"], tmp_path)
        b = run_cli(["--seed", "2", "audit", "densities"], tmp_path)
        da, db = json.loads(a.stdout), json.loads(b.stdout)
        assert da["request_hash"] != db["request_hash"]
        assert da["result"]["passed"] and db["result"]["passed"]


# Runs one command in this interpreter and reports whether numpy was loaded.
_NUMPY_PROBE = """
import sys
from qcl.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
print("numpy" in sys.modules, file=sys.stderr)
"""


class TestImportPaths:
    @pytest.mark.parametrize("args", [
        ["gauss", "--p", "7", "--va", "1", "--vt", "3", "--xi", "0",
         "--ua", "3", "--ut", "5", "--uxi", "2"],
        ["lattice", "--k", "3", "--m", "3", "--eta", "1,1,1,0", "--minima"],
        ["delta-check", "--q", "16", "--alpha", "3,-1,2,5"],
    ], ids=["gauss", "lattice-minima", "delta-check-shift"])
    def test_exact_paths_leave_numpy_unloaded(self, args, tmp_path):
        env = dict(os.environ, QCL_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                               "--no-cache"] + args,
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr.decode().splitlines()[-1] == "False"


ROOT = Path(__file__).resolve().parents[1]

# appended to a copied lattices.py: every enumerated count comes out one high
_PERTURB = """

_rep_number = rep_number


def rep_number(m):
    a, b = _rep_number(m)
    return a + 1, b
"""


class TestStdoutDiff:
    REQUESTS = ["repnum --m 5", "count --n 2 --x 1"]

    def diff(self, tmp_path, perturb=False, extra=()):
        head = tmp_path / "head"
        shutil.copytree(ROOT / "src" / "qcl", head / "qcl",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if perturb:
            with open(head / "qcl" / "lattices.py", "a") as fh:
                fh.write(_PERTURB)
        requests = tmp_path / "requests.txt"
        requests.write_text("\n".join(self.REQUESTS) + "\n")
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
             *extra, str(ROOT / "src"), str(head), str(requests)],
            capture_output=True, text=True)

    def test_identical_copy_passes(self, tmp_path):
        proc = self.diff(tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_perturbed_output_fails(self, tmp_path):
        proc = self.diff(tmp_path, perturb=True)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == ["DIFFERS (stdout): repnum --m 5"]

    def test_seed_sweep_runs_every_request_at_each_seed(self, tmp_path):
        proc = self.diff(tmp_path, perturb=True, extra=["--seeds", "3-4"])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "DIFFERS (stdout): --seed 3 repnum --m 5",
            "DIFFERS (stdout): --seed 4 repnum --m 5"]
        assert "4 requests, 2 differ" in proc.stderr
