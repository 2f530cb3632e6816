import hashlib
import json
import os
import re
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
        from qcl import cli

        opts = {"no_cache": True, "csv": None, "threads": 1,
                "seed": 0, "budget": None, "config": {}}

        def bad():
            raise VerificationError("broken identity")

        with pytest.raises(SystemExit) as exc:
            cli._emit(opts, "count", {"n": 1}, bad)
        assert exc.value.code == 4

    @staticmethod
    def _crashing_audit(cache, monkeypatch):
        from qcl import audits, cli

        monkeypatch.setenv("QCL_CACHE_DIR", str(cache))
        opts = {"no_cache": False, "csv": None, "threads": 1,
                "seed": 0, "budget": None, "config": {}}

        def crash():
            raise TypeError("unsupported seed type")

        with pytest.raises(SystemExit) as exc:
            cli._emit(opts, "audit", {"suite": "crash"},
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


def _request_hash(subcommand, params, seed=DEFAULT_SEED):
    request = _canonical_request(subcommand, params, seed, None)
    return hashlib.sha256(request.encode()).hexdigest()[:32]


# Every subcommand and option of the command line (None: the global ones).
SURFACE = {
    None: ["--no-cache", "--csv", "--threads", "--seed", "--budget",
           "--config", "--help"],
    "count": ["--n", "--upsilon", "--x", "--X", "--engine", "--traceless"],
    "density": ["--place", "--p", "--m", "--n", "--engine"],
    "gauss": ["--p", "--va", "--vt", "--xi", "--ua", "--ut", "--uxi",
              "--xi-zero"],
    "expsum": ["--p", "--delta", "--gamma"],
    "lattice": ["--h", "--H", "--k", "--K", "--m", "--eta", "--m0",
                "--minima"],
    "repnum": ["--m", "--max"],
    "singular": ["--n", "--m", "--primes", "--skip-two", "--arch"],
    "delta-check": ["--alpha", "--q", "--Q"],
    "audit": ["suite"],
}


def _run_main(args, capsysbinary):
    """(exit code, stdout bytes) of one in-process run of the CLI."""
    from qcl import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    return exc.value.code, capsysbinary.readouterr().out


class TestArgumentParsing:
    @pytest.mark.parametrize("args, subcommand, params", [
        (["delta-check", "--q", "8", "--alpha", "-4,3,-4,2"], "delta-check",
         {"alpha": "-4,3,-4,2", "Q": 8}),
        (["lattice", "--k", "19", "--m", "19", "--eta", "-2,-3,-5,0"],
         "lattice", {"H": 1, "K": 19, "m": 19, "eta": "-2,-3,-5,0",
                     "m0": "1,0,0,0", "minima": False}),
        (["expsum", "--p", "3", "--delta", "9,0,0,1", "--gamma", "-3,0,0,3"],
         "expsum", {"p": 3, "delta": "9,0,0,1", "gammas": ["-3,0,0,3"]}),
        (["expsum", "--p", "3", "--delta", "9,0,0,1", "--gamma", "-3,0,0,3",
          "--gamma", "0,-3,3,0"],
         "expsum", {"p": 3, "delta": "9,0,0,1",
                    "gammas": ["-3,0,0,3", "0,-3,3,0"]}),
        (["count", "--n", "2", "--upsilon", "-+", "--X", "1"], "count",
         {"n": 2, "upsilon": "-+", "X": 1, "engine": "conv",
          "traceless": False}),
        (["delta-check", "--Q", "8", "--alpha", "1,0,0,0"], "delta-check",
         {"alpha": "1,0,0,0", "Q": 8}),
        (["lattice", "--H", "2", "--K", "3", "--m", "3", "--eta", "1,1,1,0"],
         "lattice", {"H": 2, "K": 3, "m": 3, "eta": "1,1,1,0",
                     "m0": "1,0,0,0", "minima": False}),
    ], ids=["negative-alpha", "negative-eta", "negative-gamma", "two-gammas",
            "sign-pattern-and-X", "Q", "H-and-K"])
    def test_values_land_in_the_request(self, args, subcommand, params,
                                        tmp_path, monkeypatch, capsysbinary):
        # a value is the token after its option, even one starting with '-'
        monkeypatch.setenv("QCL_CACHE_DIR", str(tmp_path / "cache"))
        code, out = _run_main(args, capsysbinary)
        assert code == 0
        assert json.loads(out)["request_hash"] == \
            _request_hash(subcommand, params)

    @pytest.mark.parametrize("args", [
        ["--threads", "0", "repnum", "--m", "3"],
        ["--config", "{missing}", "repnum", "--m", "3"],
        ["count", "--n", "2", "--eng", "conv", "--x", "1"],
        ["--no-c", "repnum", "--m", "3"],
    ], ids=["threads-zero", "missing-config", "abbreviated-option",
            "abbreviated-global-option"])
    def test_usage_error_is_two_with_empty_stdout(self, args, tmp_path,
                                                  monkeypatch, capsysbinary):
        monkeypatch.setenv("QCL_CACHE_DIR", str(tmp_path / "cache"))
        args = [a.format(missing=tmp_path / "absent.cfg") for a in args]
        assert _run_main(args, capsysbinary) == (2, b"")

    @pytest.mark.parametrize("command", list(SURFACE),
                             ids=[c or "qcl" for c in SURFACE])
    def test_help_lists_the_surface(self, command, capsysbinary):
        code, out = _run_main([command, "--help"] if command else ["--help"],
                              capsysbinary)
        assert code == 0
        text = out.decode()
        names = SURFACE[command] + ([c for c in SURFACE if c]
                                    if command is None else [])
        for name in names:
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                             text), name


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
        from qcl import cli

        monkeypatch.setenv("QCL_CACHE_DIR", str(tmp_path / "cache"))
        opts = {"no_cache": False, "csv": None, "threads": 1,
                "seed": 0, "budget": None, "config": {}}

        def run(density):
            with pytest.raises(SystemExit) as exc:
                cli._emit(opts, "density", {"n": 24},
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


# Runs one command in this interpreter; its last stderr line lists the
# numpy, mpmath and qcl modules it loaded.
_MODULES_PROBE = """
import json, sys
from qcl.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("numpy", "mpmath", "qcl"))),
      file=sys.stderr)
"""


def _probe_modules(args, cache):
    env = dict(os.environ, QCL_CACHE_DIR=str(cache))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE] + args,
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stderr.decode().splitlines()
    return lines[:-1], json.loads(lines[-1])


class TestImportPaths:
    @pytest.mark.parametrize("args", [
        ["gauss", "--p", "7", "--va", "1", "--vt", "3", "--xi", "0",
         "--ua", "3", "--ut", "5", "--uxi", "2"],
        ["lattice", "--k", "3", "--m", "3", "--eta", "1,1,1,0", "--minima"],
        ["delta-check", "--q", "16", "--alpha", "3,-1,2,5"],
    ], ids=["gauss", "lattice-minima", "delta-check-shift"])
    def test_exact_paths_leave_numpy_unloaded(self, args, tmp_path):
        _, modules = _probe_modules(["--no-cache"] + args, tmp_path / "cache")
        assert "numpy" not in modules

    def test_cache_hit_loads_only_the_cli(self, tmp_path):
        # a later eager import in the CLI would put these back on every hit
        args = ["gauss", "--p", "7", "--va", "1", "--vt", "3", "--xi", "0"]
        _probe_modules(args, tmp_path / "cache")
        log, modules = _probe_modules(args, tmp_path / "cache")
        assert log and log[0].startswith("cache hit")
        assert modules == ["qcl", "qcl.cli", "qcl.errors"]


ROOT = Path(__file__).resolve().parents[1]

# appended to a copied lattices.py: every enumerated count comes out one high
_PERTURB = """

_rep_number = rep_number


def rep_number(m):
    a, b = _rep_number(m)
    return a + 1, b
"""


def _other_pythons():
    """CPython >= 3.10 installs beside this one, as a version manager lays
    them out (<prefix>/../<version>/bin/python3), this interpreter left
    out."""
    here = Path(sys.base_prefix).resolve()
    found = []
    for exe in sorted(Path(sys.base_prefix).parent.glob("*/bin/python3")):
        if exe.parents[1].resolve() == here:
            continue
        try:
            proc = subprocess.run(
                [str(exe), "-c", "import sys; print(sys.implementation.name"
                 " == 'cpython' and sys.version_info >= (3, 10))"],
                capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if proc.stdout.strip() == "True":
            found.append(exe)
    return found


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

    # gauss, lattice, repnum and a nonzero-shift delta-check need neither
    # numpy nor mpmath, so they run on a bare interpreter
    def test_numpy_free_commands_match_on_other_interpreters(self, tmp_path):
        pythons = _other_pythons()
        if not pythons:
            pytest.skip("no other CPython >= 3.10 install found")
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "gauss --p 7 --va 1 --vt 3 --xi 0 --ua 3 --ut 5 --uxi 2\n"
            "lattice --k 19 --m 19 --eta -2,-3,-5,0 --minima\n"
            "delta-check --q 16 --alpha 3,-1,2,5\n"
            "repnum --max 30\n")
        for python in pythons:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
                 "--head-python", str(python), str(ROOT / "src"),
                 str(ROOT / "src"), str(requests)],
                capture_output=True, text=True)
            assert proc.returncode == 0, (python, proc.stdout + proc.stderr)
            assert "4 requests, 0 differ" in proc.stderr, python
