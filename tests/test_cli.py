import hashlib
import json
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcl import DEFAULT_SEED
from qcl.cli import _canonical_request, _flatten, _jsonable, _load_config
from qcl.errors import VerificationError
from qcl.padic import pval

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

    @pytest.mark.parametrize("args,minima", [
        (["--k", "29", "--m", "58", "--eta", "-3,5,6,-6",
          "--m0", "6,53,16,4"], ["12", "30", "33", "87"]),
        (["--k", "7", "--m", "7", "--eta", "-2,4,-1,0", "--m0", "5,0,3,5"],
         ["9", "9", "21/2", "21/2"]),
    ], ids=["k29-m58", "k7-m7"])
    def test_lattice_minima_need_no_bound(self, tmp_path, args, minima):
        # at H = 3 the fourth minimum passes max(4, m), a bound the caller
        # once had to guess; the lattice bounds it by lcm(H, m) itself
        out = run_cli(["lattice", "--h", "3", *args, "--minima"], tmp_path)
        got = json.loads(out.stdout)["result"]["minima"]
        assert [m["num"] if m["den"] == "1" else f'{m["num"]}/{m["den"]}'
                for m in got] == minima

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

    def test_csv_quotes_fields_with_commas(self, tmp_path):
        import csv

        csv_path = tmp_path / "out.csv"
        run_cli(["--no-cache", "--csv", str(csv_path), "delta-check",
                 "--q", "8", "--alpha", "0,-4,8,-2"], tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["field", "value"]
        assert all(len(row) == 2 for row in rows)
        assert dict(rows)["alpha"] == "0,-4,8,-2"


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

    def test_pair_cap_is_three(self, monkeypatch, capsysbinary):
        # the first four-slot node at X = 2 is 48552^2 pairs: refused on
        # the children's supports, before any of its pair sums exist
        from qcl import counting

        real, over = counting._block_sums, []

        def guarded(a, b):
            if len(a.keys) * len(b.keys) > counting._CONV_PAIR_CAP:
                over.append((len(a.keys), len(b.keys)))
            return real(a, b)

        monkeypatch.setattr(counting, "_block_sums", guarded)
        code, out = _run_main(["--no-cache", "count", "--n", "8", "--x", "2"],
                              capsysbinary)
        assert (code, out, over) == (3, b"", [])

    def test_lattice_walk_cap_is_three(self, monkeypatch, capsysbinary):
        # the sup-box walk behind the minima refuses past its node cap
        from qcl import lattices

        monkeypatch.setattr(lattices, "_ENUM_BUDGET", 100)
        code, out = _run_main(["--no-cache", "lattice", "--k", "19", "--m",
                               "38", "--eta", "-2,-3,-5,0", "--minima"],
                              capsysbinary)
        assert (code, out) == (3, b"")

    def test_character_sum_answers_past_the_grid_cap(self, capsysbinary):
        # q = 343: 7^12 grid matrices, but 7^6 characters. At gamma = 0,
        # I0 = #{Y : a^2 + bc = b(a + d) = 0 mod q} / q^4, counted in
        # O(q^2): for each (a, b) with j = min(v_7(b), 3) there are p^j
        # values of c when p^j | a^2, and p^j of d
        code, out = _run_main(["--no-cache", "expsum", "--p", "7", "--delta",
                               "343,0,0,1", "--gamma", "0,0,0,0"],
                              capsysbinary)
        q = 343
        count = 0
        for b in range(q):
            j = pval(b, 7, cap=3)
            count += sum(7 ** (2 * j) for a in range(q) if a * a % 7 ** j == 0)
        value = json.loads(out)["result"]["value"]
        assert code == 0
        assert Fraction(int(value["num"]), int(value["den"])) == Fraction(
            count, q ** 4) == Fraction(103, 823543)

    def test_character_cap_is_three(self, tmp_path):
        # 3163 is the least prime whose q^2 characters exceed 10^7
        proc = run_cli(["--no-cache", "expsum", "--p", "3163", "--delta",
                        "3163,0,0,1", "--gamma", "0,0,0,0"], tmp_path,
                       check=False)
        assert proc.returncode == 3 and proc.stdout == b""

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_repnum_max_below_one_is_two(self, capsysbinary, top):
        # no vacuous verdict over an empty range
        code, out = _run_main(["--no-cache", "repnum", "--max", top],
                              capsysbinary)
        assert (code, out) == (2, b"")

    @pytest.mark.parametrize("primes", [["2", "--skip-two"], ["2,3"]],
                             ids=["two-alone", "two-and-three"])
    def test_singular_refuses_two_as_a_split_prime(self, capsysbinary,
                                                   primes):
        # 2 has the nonsplit factor: alone it answered the empty product
        # 1, beside 3 it was dropped without a word
        code, out = _run_main(["--no-cache", "singular", "--n", "3",
                               "--primes", *primes], capsysbinary)
        assert (code, out) == (2, b"")

    def test_singular_needs_a_local_factor(self, capsysbinary):
        # no split prime and --skip-two: no factor to multiply
        code, out = _run_main(["--no-cache", "singular", "--n", "3",
                               "--primes", "", "--skip-two"], capsysbinary)
        assert (code, out) == (2, b"")

    @pytest.mark.parametrize("engine", ["brute", "both"])
    def test_traceless_has_no_other_engine(self, capsysbinary, engine):
        # the traceless count ran whatever the engine, which only moved
        # the request hash
        code, out = _run_main(["--no-cache", "count", "--n", "3", "--x", "1",
                               "--traceless", "--engine", engine],
                              capsysbinary)
        assert (code, out) == (2, b"")

    @pytest.mark.parametrize("args", [
        ["--q", "513", "--alpha", "0,0,0,0"],
        ["--q", "100000", "--alpha=1000001,3,5,7"],
        ["--q", "316", "--alpha", "27720,0,0,0"],
    ], ids=["zero-shift-height", "divisor-scan", "shells"])
    def test_delta_check_caps_are_three(self, tmp_path, args):
        # refused before the norm table, the divisor scan or any shell
        proc = run_cli(["--no-cache", "delta-check", *args], tmp_path,
                       check=False)
        assert proc.returncode == 3 and proc.stdout == b""

    @pytest.mark.parametrize("args", [
        ["gauss", "--p", "3", "--va", "0", "--vt", "15", "--xi", "0"],
        ["count", "--n", "13", "--x", "100", "--traceless"],
        ["density", "--place", "split", "--p", "3", "--m", "1", "--n", "4",
         "--engine", "exhaustive"],
    ], ids=["gauss-sum", "traceless", "exhaustive"])
    def test_summand_caps_are_three(self, tmp_path, args):
        # 3^15 Gauss summands; 201^3 * 13 traceless slot-box cells; 3^16
        # exhaustive density tuples
        proc = run_cli(["--no-cache", *args], tmp_path, check=False)
        assert proc.returncode == 3 and proc.stdout == b""

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_slot_count_below_one_is_two(self, capsysbinary, n):
        # refused on n itself, not on the empty default sign pattern
        from qcl import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["--no-cache", "count", "--n", n, "--x", "1"])
        out, err = capsysbinary.readouterr()
        assert (exc.value.code, out) == (2, b"")
        assert b"n must be at least 1" in err

    @pytest.mark.parametrize("p,m,n", [(2, 12, 5), (3, 9, 2), (2, 40, 5)])
    def test_nonsplit_quotient_cap_is_three(self, tmp_path, p, m, n):
        # refused on the quotient's order, before its digits are allocated
        proc = run_cli(["--no-cache", "density", "--place", "nonsplit",
                        "--p", str(p), "--m", str(m), "--n", str(n)],
                       tmp_path, check=False)
        assert proc.returncode == 3 and proc.stdout == b""

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
        ["--config", "{directory}", "repnum", "--m", "3"],
        ["--config", "{lots}", "repnum", "--m", "3"],
        ["expsum", "--p", "1", "--delta", "25,0,0,1", "--gamma", "0,0,0,0"],
        ["expsum", "--p", "0", "--delta", "25,0,0,1", "--gamma", "0,0,0,0"],
        ["expsum", "--p", "6", "--delta", "36,0,0,1", "--gamma", "0,0,0,0"],
        ["density", "--p", "4", "--m", "1", "--n", "2"],
        ["singular", "--n", "2", "--primes", "4"],
        ["gauss", "--p", "4", "--va", "0", "--vt", "1", "--xi", "0"],
        ["expsum", "--p", "5", "--delta", "a,b,c,d", "--gamma", "0,0,0,0"],
        ["singular", "--n", "2", "--primes", "x"],
        ["density", "--p", "3", "--m", "1", "--n", "0", "--engine",
         "exhaustive"],
        ["density", "--p", "3", "--m", "-1", "--n", "2", "--engine",
         "exhaustive"],
        ["density", "--p", "3", "--m", "1", "--n", "-2", "--engine",
         "exhaustive"],
        ["density", "--p", "3", "--m", "0", "--n", "2", "--engine",
         "exhaustive"],
    ], ids=["threads-zero", "missing-config", "abbreviated-option",
            "abbreviated-global-option", "config-is-a-directory",
            "config-budget-not-an-integer", "expsum-p-one", "expsum-p-zero",
            "expsum-p-composite", "density-p-composite",
            "singular-prime-composite", "gauss-p-composite",
            "coords-not-integers", "primes-not-integers",
            "exhaustive-no-slots", "exhaustive-negative-level",
            "exhaustive-negative-slots", "exhaustive-level-zero"])
    def test_usage_error_is_two_with_empty_stdout(self, args, tmp_path,
                                                  monkeypatch, capsysbinary):
        monkeypatch.setenv("QCL_CACHE_DIR", str(tmp_path / "cache"))
        lots = tmp_path / "lots.cfg"
        lots.write_text("budget = lots\n")
        args = [a.format(missing=tmp_path / "absent.cfg", directory=tmp_path,
                         lots=lots) for a in args]
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

    def test_unusable_cache_dir_still_prints(self, tmp_path):
        # the cache only saves work: a cache path under a regular file
        # fails at makedirs, after the result is computed
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["repnum", "--m", "5"]
        proc = run_cli(args, tmp_path, check=False, cache=blocker / "sub")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == run_cli(["--no-cache"] + args, tmp_path).stdout
        assert "cache write failed:" in proc.stderr.decode()
        assert "Traceback" not in proc.stderr.decode()
        assert blocker.read_text() == ""

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
# numpy, mpmath, dataclasses, inspect and qcl modules it loaded.
_MODULES_PROBE = """
import json, sys
from qcl.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in
                        ("numpy", "mpmath", "dataclasses", "inspect", "qcl"))),
      file=sys.stderr)
"""


def _probe_modules(args, cache):
    env = dict(os.environ, QCL_CACHE_DIR=str(cache))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE] + args,
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stderr.decode().splitlines()
    return lines[:-1], json.loads(lines[-1])


# Runs one command with numpy and mpmath unimportable: a None entry in
# sys.modules makes every import of the module raise ImportError.
_BLOCKED_RUN = """
import sys
sys.modules["numpy"] = sys.modules["mpmath"] = None
from qcl.cli import main
main(sys.argv[1:])
"""

# the commands that need neither numpy nor mpmath: among them the split
# densities at odd p and a singular series over odd split primes, which
# `qcl.densities` answers without loading numpy
EXACT_PATHS = pytest.mark.parametrize("args", [
    ["gauss", "--p", "7", "--va", "1", "--vt", "3", "--xi", "0",
     "--ua", "3", "--ut", "5", "--uxi", "2"],
    ["lattice", "--k", "3", "--m", "3", "--eta", "1,1,1,0", "--minima"],
    ["delta-check", "--q", "16", "--alpha", "3,-1,2,5"],
    ["delta-check", "--q", "8", "--alpha", "0,0,0,0"],
    ["repnum", "--m", "3000"],
    ["density", "--place", "split", "--p", "5", "--m", "2", "--n", "3"],
    ["density", "--place", "split", "--p", "3", "--m", "1", "--n", "2",
     "--engine", "exhaustive"],
    ["singular", "--n", "3", "--primes", "3,5,7", "--skip-two"],
    ["expsum", "--p", "3", "--delta", "9,0,0,1", "--gamma", "1,0,0,1"],
    ["audit", "prime-case"],
    ["audit", "gauss-laws"],
    ["audit", "lattices"],
], ids=["gauss", "lattice-minima", "delta-check-shift", "delta-check-zero",
        "repnum", "density-split-odd", "density-split-exhaustive",
        "singular-skip-two", "expsum-odd-p", "audit-prime-case",
        "audit-gauss-laws", "audit-lattices"])


class TestImportPaths:
    @EXACT_PATHS
    def test_exact_paths_leave_numpy_unloaded(self, args, tmp_path):
        _, modules = _probe_modules(["--no-cache"] + args, tmp_path / "cache")
        assert "numpy" not in modules
        assert not {"mpmath", "dataclasses", "inspect"} & set(modules)

    @EXACT_PATHS
    def test_exact_paths_run_without_numpy_or_mpmath(self, args, tmp_path):
        # the bare-interpreter run of these commands, on this interpreter
        env = dict(os.environ, QCL_CACHE_DIR=str(tmp_path / "cache"))
        runs = [subprocess.run([sys.executable, *head, "--no-cache", *args],
                               capture_output=True, env=env)
                for head in (["-c", _BLOCKED_RUN], ["-m", "qcl.cli"])]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert runs[0].stdout == runs[1].stdout != b""

    @pytest.mark.parametrize("args", [
        ["expsum", "--p", "5", "--delta", "25,0,0,1", "--gamma", "1,2,3,4"],
        ["expsum", "--p", "3", "--delta", "9,0,0,1", "--gamma", "1,0,0,1",
         "--gamma", "2,1,0,1", "--gamma", "0,1,1,0"],
        ["audit", "prime-case"],
        ["audit", "local-integrals"],
    ], ids=["expsum-p5", "expsum-p3-three-slots", "prime-case",
            "local-integrals"])
    def test_odd_p_integrals_run_without_numpy(self, args, tmp_path):
        # I0 at odd p is a class sum in Python integers; numpy is
        # imported only by the pair sum at p = 2
        env = dict(os.environ, QCL_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", _BLOCKED_RUN,
                               "--no-cache", *args], capture_output=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["result"]

    def test_expsums_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qcl.cli, qcl.expsums; "
             "print(sorted(m for m in sys.modules if 'numpy' in m))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_two_adic_expsum_reads_numpy(self, tmp_path):
        # the pair sum at p = 2 still answers, and loads numpy itself
        _, modules = _probe_modules(
            ["--no-cache", "expsum", "--p", "2", "--delta", "32,0,0,1",
             "--gamma", "1,0,0,1", "--gamma", "1,1,0,0"], tmp_path / "cache")
        assert "numpy" in modules

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

    def test_golden_file_checks_one_tree(self, tmp_path):
        # record the verdicts of this tree, then check a perturbed copy
        golden = tmp_path / "verdicts.txt"
        golden.write_text("# two requests\n" + "\n".join(self.REQUESTS)
                          + "\n")
        script = [sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
                  "--golden", str(golden)]
        record = subprocess.run([*script, "--update", str(ROOT / "src")],
                                capture_output=True, text=True)
        assert record.returncode == 1, record.stdout + record.stderr
        lines = golden.read_text().splitlines()
        assert lines[0] == "# two requests"
        assert [ln.split(" ", 2)[::2] for ln in lines[1:]] == [
            ["0", req] for req in self.REQUESTS]
        head = tmp_path / "head"
        shutil.copytree(ROOT / "src" / "qcl", head / "qcl",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*script, str(head)], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 requests, 0 differ" in proc.stderr
        with open(head / "qcl" / "lattices.py", "a") as fh:
            fh.write(_PERTURB)
        proc = subprocess.run([*script, str(head)], capture_output=True,
                              text=True)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == ["DIFFERS (stdout): repnum --m 5"]

    def test_verdict_file_names_every_command(self):
        # the corpus itself runs outside the test suite; here only its
        # shape: every line parsed, every command, every exit code, and
        # every audit suite at seeds 0-8
        from qcl.audits import SUITES
        from qcl.cli import _COMMANDS

        diff = runpy.run_path(str(ROOT / "scripts" / "stdout_diff.py"))
        verdicts = [(text, rc) for text, rc, _, is_request in
                    diff["read_verdicts"](ROOT / "scripts" / "verdicts.txt")
                    if is_request]
        assert all(rc is not None for _, rc in verdicts)
        commands = {next(t for t in text.split() if t in _COMMANDS)
                    for text, _ in verdicts}
        assert commands == set(_COMMANDS)
        assert {rc for _, rc in verdicts} == {0, 2, 3, 4}
        requests = {text for text, _ in verdicts}
        assert {f"--seed {s} audit {suite}" for s in range(9)
                for suite in SUITES} <= requests

    def test_density_sections_replay(self):
        # the `# density` and `# singular` lines of the corpus, run by the
        # script's own runner on this tree: every exit code and digest holds
        diff = runpy.run_path(str(ROOT / "scripts" / "stdout_diff.py"))
        recorded, section = [], None
        for text, rc, digest, is_request in diff["read_verdicts"](
                ROOT / "scripts" / "verdicts.txt"):
            if not is_request:
                section = text if text.startswith("# ") else section
            elif section in ("# density", "# singular"):
                recorded.append((text, rc, digest))
        assert len(recorded) >= 12
        runs = diff["run_all"]([(sys.executable, str(ROOT / "src"),
                                 shlex.split(text)) for text, _, _ in recorded])
        assert [(text, rc, hashlib.sha256(out).hexdigest())
                for (text, _, _), (rc, out) in zip(recorded, runs)] == recorded

    @pytest.mark.parametrize("missing", ["base", "head"])
    def test_tree_without_the_cli_is_refused(self, tmp_path, missing):
        # both runs failing to import qcl would otherwise "agree"
        trees = {"base": str(ROOT / "src"), "head": str(ROOT / "src")}
        trees[missing] = str(tmp_path / "missing")
        requests = tmp_path / "requests.txt"
        requests.write_text("repnum --m 5\n")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
             trees["base"], trees["head"], str(requests)],
            capture_output=True, text=True)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "no qcl/cli.py under" in proc.stderr
        assert proc.stdout == ""

    # gauss, lattice, repnum, a nonzero-shift delta-check, odd-p expsum,
    # the prime-case audit, the split densities at odd p and a singular
    # series without 2 need neither numpy nor mpmath, so they run on a bare
    # interpreter
    def test_numpy_free_commands_match_on_other_interpreters(self, tmp_path):
        pythons = _other_pythons()
        if not pythons:
            pytest.skip("no other CPython >= 3.10 install found")
        requests = tmp_path / "requests.txt"
        requests.write_text(
            "gauss --p 7 --va 1 --vt 3 --xi 0 --ua 3 --ut 5 --uxi 2\n"
            "lattice --k 19 --m 19 --eta -2,-3,-5,0 --minima\n"
            "delta-check --q 16 --alpha 3,-1,2,5\n"
            "delta-check --q 8 --alpha 0,0,0,0\n"
            "repnum --max 30\n"
            "expsum --p 5 --delta 25,0,0,1 --gamma 1,2,3,4\n"
            "expsum --p 3 --delta 9,0,0,1 --gamma 1,0,0,1 --gamma 2,1,0,1"
            " --gamma 0,1,1,0\n"
            "audit prime-case\n"
            "density --place split --p 3 --m 1 --n 2 --engine both\n"
            "density --place split --p 7 --m 2 --n 2\n"
            "singular --n 3 --primes 3,5 --skip-two\n")
        for python in pythons:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
                 "--head-python", str(python), str(ROOT / "src"),
                 str(ROOT / "src"), str(requests)],
                capture_output=True, text=True)
            assert proc.returncode == 0, (python, proc.stdout + proc.stderr)
            assert "11 requests, 0 differ" in proc.stderr, python
