"""Command-line surface: golden outputs, exit codes, format round trips."""

import csv
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import chi2

import hermipir
from hermipir import cli, scheme
from hermipir.cli import UNIFORMITY_LEVEL, _uniformity_threshold, build_parser, main
from test_golden import CLI_GOLDENS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_default_demo_anchor(self, capsys):
        # the stock invocation: q=5, x=t=1, 3 files, seed 7, 100 trials
        code, out, err = run_cli(capsys, "pir-demo")
        assert code == 0
        assert "retrievals: 100/100 correct" in out
        assert "rate: 15/85 = 0.17647" in out
        assert out.count("-> ok") == 100
        assert err.startswith("config: ")
        assert '"seed": 7' in err

    def test_json_round_trip(self, capsys):
        code, out, err = run_cli(
            capsys, "pir-demo", "--trials", "5", "--format", "json"
        )
        assert code == 0
        transcript = json.loads(out)
        assert transcript["successes"] == 5
        assert transcript["trials"] == 5
        assert transcript["config"] == {
            "q": 5, "x_sec": 1, "t_priv": 1, "num_files": 3,
            "seed": 7, "trials": 5, "fiber_count": 5,
        }
        assert transcript["rate"]["fraction"] == "15/85"
        assert transcript["transport"] == "local"
        assert len(transcript["results"]) == 5

    def test_byte_determinism(self, capsys):
        first = run_cli(capsys, "pir-demo", "--trials", "3")
        second = run_cli(capsys, "pir-demo", "--trials", "3")
        assert first == second

    def test_seed_changes_transcript(self, capsys):
        _, out_a, _ = run_cli(capsys, "pir-demo", "--trials", "3",
                              "--format", "json", "--seed", "7")
        _, out_b, _ = run_cli(capsys, "pir-demo", "--trials", "3",
                              "--format", "json", "--seed", "8")
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["successes"] == b["successes"] == 3
        assert a["results"] != b["results"]

    def test_negative_trials_rejected(self, capsys):
        # a malformed flag, not a failed retrieval: exit 2 and nothing run
        code, out, err = run_cli(capsys, "pir-demo", "--trials", "-3")
        assert code == 2
        assert out == ""
        assert "--trials" in err and "nonnegative" in err
        code, out, _ = run_cli(capsys, "pir-demo", "--trials", "0")
        assert code == 0
        assert "retrievals: 0/0 correct" in out

    def test_infeasible_parameters_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "pir-demo", "--q", "4")
        assert code == 2
        assert out == ""
        assert "infeasible parameters" in err
        assert "fiber-count-window" in err


class TestCountPoints:
    def test_hermitian_count(self, capsys):
        code, out, _ = run_cli(capsys, "count-points",
                               "--curve", "hermitian", "--q", "5")
        assert code == 0
        assert "point count: 126" in out
        assert "genus 10" in out

    def test_hyperelliptic_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "count-points", "--curve", "hyperelliptic",
            "--q", "841", "--coeffs", "1,0,0,0,0",
        )
        assert code == 0
        assert "y^2 = x^5 + 1" in out
        assert "point count: 958" in out
        assert "gamma (points with y = 0): 5" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "count-points", "--curve", "hermitian",
                               "--q", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["point_count"] == 4 ** 3 + 1
        assert payload["affine_count"] == 4 ** 3
        assert payload["genus"] == 6
        assert payload["config"]["curve"] == "hermitian"

    def test_coeffs_flag_misuse(self, capsys):
        code, _, err = run_cli(capsys, "count-points", "--curve", "hermitian",
                               "--q", "5", "--coeffs", "1,2")
        assert code == 2 and "hyperelliptic" in err
        code, _, err = run_cli(capsys, "count-points",
                               "--curve", "hyperelliptic", "--q", "13")
        assert code == 2 and "--coeffs" in err

    @pytest.mark.parametrize("coeffs", ["1,,0,0", "1,0,0,", ",1,0,0", ""])
    def test_empty_coefficient_rejected(self, capsys, coeffs):
        # "1,,0,0" once counted y^2 = x^3 + 1, a model of the wrong degree
        code, out, err = run_cli(capsys, "count-points", "--curve",
                                 "hyperelliptic", "--q", "7",
                                 "--coeffs", coeffs)
        assert code == 2
        assert out == ""
        assert "--coeffs" in err


class TestTables:
    def test_csv_grid_shape(self, capsys):
        # four families times fourteen budget columns, one cell per line
        code, out, _ = run_cli(capsys, "tables", "--which", "2",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4 * 14
        assert rows[0][0] == "table"
        assert rows[1][9] == "0.93103"      # genus 0 at the smallest budget
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_small_field_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "1",
                               "--fields", "11")
        assert code == 0
        assert "| GF(11) genus 1 | 0.33333 | 0.20000 | 0.066667 | - |" in out
        assert "GF(11) genus 2" in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "3",
                               "--format", "json")
        assert code == 0
        structure = json.loads(out)
        assert structure["table"] == 3
        assert len(structure["rows"]) == 7
        flagged = structure["reference_summary"]["mismatched_rows"]
        assert flagged == ["GF(121) genus 5 (gamma-zero maximal profile)"]

    def test_fields_flag_needs_catalog_one(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--which", "3",
                               "--fields", "11")
        assert code == 2
        assert "--which 1" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "--which", "2", "--bogus")
        assert code == 2

    def test_malformed_fields_list_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "--which", "1",
                             "--fields", "11,x")
        assert code == 2

    @pytest.mark.parametrize("fields", ["", "11,", "11,,13"])
    def test_empty_fields_item_rejected(self, capsys, fields):
        # an empty list once printed an empty catalog and exited 0
        code, out, err = run_cli(capsys, "tables", "--which", "1",
                                 "--fields", fields)
        assert code == 2
        assert out == ""
        assert "--fields" in err

    @pytest.mark.parametrize("fields", ["11,11", "11,13,11"])
    def test_repeated_field_order_rejected(self, capsys, fields):
        # a repeated order once printed each of its rows twice and exited 0
        code, out, err = run_cli(capsys, "tables", "--which", "1",
                                 "--fields", fields)
        assert code == 2
        assert out == ""
        assert "--fields repeats" in err


class TestCertify:
    def test_pass_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--q", "5",
                               "--x", "1", "--t", "1")
        assert code == 0
        assert "certification: PASS" in out
        assert "rank-additivity: 15 + 60 = 75" in out
        assert "rate: 15/85 = 0.17647" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["all_ok"] is True
        assert payload["report"]["query_dual_bound"] >= 2
        assert payload["config"]["seed"] == 0


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["fields", "bases", "noise", "privacy", "security", "codes"]
    )
    def test_every_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert f"suite {suite}: PASS" in out
        assert "FAIL" not in out

    def test_json_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bases",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        names = [c["check"] for c in payload["checks"]]
        assert "evaluation-rank" in names
        assert all(c["ok"] for c in payload["checks"])

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2


PARSED_DEFAULTS = {
    ("tables", "--which", "1"): {
        "subcommand": "tables", "which": 1, "format": "md", "full_search": False,
        "fields": None,
    },
    ("count-points", "--curve", "hermitian", "--q", "5"): {
        "subcommand": "count-points", "curve": "hermitian", "q": 5, "coeffs": None,
        "format": "md",
    },
    ("pir-demo",): {
        "subcommand": "pir-demo", "q": 5, "x": 1, "t": 1, "files": 3, "seed": 7,
        "trials": 100, "fibers": None, "transport": "local", "format": "md",
    },
    ("certify",): {
        "subcommand": "certify", "q": 5, "x": 1, "t": 1, "fibers": None, "seed": 0,
        "products": 100, "format": "md",
    },
    ("verify", "--suite", "fields"): {
        "subcommand": "verify", "suite": "fields", "seed": 0, "format": "md",
    },
}


@pytest.mark.parametrize("argv", list(PARSED_DEFAULTS), ids=" ".join)
def test_parsed_defaults_are_pinned(argv):
    # each command's minimal flags parse to the same names and defaults
    parsed = vars(build_parser().parse_args(list(argv)))
    del parsed["handler"]
    assert parsed == PARSED_DEFAULTS[argv]


class TestExitOne:
    """A failed retrieval, certification or check exits 1 in md and json."""

    def test_failed_retrieval(self, capsys, monkeypatch):
        reconstruct = scheme.SchemeInstance.reconstruct

        def wrong(self, answers):
            return self.field.add_arr(reconstruct(self, answers), 1)

        monkeypatch.setattr(scheme.SchemeInstance, "reconstruct", wrong)
        code, out, _ = run_cli(capsys, "pir-demo", "--q", "5", "--trials", "3")
        assert code == 1
        assert out.count("-> FAIL") == 3 and "-> ok" not in out
        assert "retrievals: 0/3 correct" in out
        code, out, _ = run_cli(capsys, "pir-demo", "--q", "5", "--trials", "3", "--format", "json")
        assert code == 1
        transcript = json.loads(out)
        assert transcript["successes"] < transcript["trials"] == 3

    def test_failed_certification(self, capsys, monkeypatch):
        monkeypatch.setattr(scheme, "dual_distance_bound", lambda code: 0)
        code, out, _ = run_cli(capsys, "certify", "--q", "5")
        assert code == 1
        assert "FAIL storage-dual-bounds" in out
        assert out.endswith("certification: FAIL\n")
        code, out, _ = run_cli(capsys, "certify", "--q", "5", "--format", "json")
        assert code == 1
        assert json.loads(out)["report"]["all_ok"] is False

    def test_failed_check(self, capsys, monkeypatch):
        failing = [{"check": "always", "ok": False, "detail": "fails on purpose"}]
        monkeypatch.setitem(cli._SUITES, "codes", lambda seed: failing)
        code, out, _ = run_cli(capsys, "verify", "--suite", "codes")
        assert code == 1
        assert "FAIL always: fails on purpose" in out
        assert out.endswith("suite codes: FAIL (0/1 checks)\n")
        code, out, _ = run_cli(capsys, "verify", "--suite", "codes", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_ok"] is False and payload["checks"] == failing


def declared_console_script():
    """The `hermipir` entry of pyproject.toml's [project.scripts].

    None on an interpreter without tomllib (Python 3.10).
    """
    try:
        import tomllib
    except ImportError:
        return None
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hermipir"]


class TestEntryPoints:
    """The declared console script and python -m both work."""

    def test_console_script(self, tmp_path):
        # Installed: run the script the installer put on PATH.  Not
        # installed (tests run from PYTHONPATH=src): run the wrapper an
        # installer writes for the declared target.  Either way the script
        # imports the hermipir this test imported first.
        declared = declared_console_script()
        pythonpath = [str(Path(hermipir.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        try:
            dist = importlib.metadata.distribution("hermipir")
        except importlib.metadata.PackageNotFoundError:
            dist = None
        if dist is not None:
            exe = shutil.which("hermipir")
            assert exe is not None, "console script not installed"
            installed = [ep.value for ep in dist.entry_points.select(
                group="console_scripts", name="hermipir")]
            assert len(installed) == 1
            if declared is not None:
                assert installed == [declared]
        else:
            pytest.importorskip("tomllib")
            target = importlib.metadata.EntryPoint(
                name="hermipir", value=declared, group="console_scripts")
            exe = tmp_path / "hermipir"
            exe.write_text(
                f"#!{sys.executable}\n"
                "import sys\n"
                f"from {target.module} import {target.attr.split('.')[0]}\n"
                f"sys.exit({target.attr}())\n"
            )
            exe.chmod(0o755)
        proc = subprocess.run(
            [str(exe), "count-points", "--curve", "hermitian", "--q", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "point count: 65" in proc.stdout

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hermipir.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("tables", "count-points", "pir-demo", "certify", "verify"):
            assert name in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: with scipy unimportable the CLI
    # still imports, and the chi-square suites print their pinned bytes
    pythonpath = [str(Path(hermipir.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    argvs = [argv for argv in CLI_GOLDENS
             if argv[:3] in (("verify", "--suite", "privacy"), ("verify", "--suite", "security"))]
    assert len(argvs) == 4
    script = (
        "import contextlib, hashlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from hermipir.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    out.append([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, CLI_GOLDENS[argv]] for argv in argvs]


def test_uniformity_threshold_matches_scipy():
    # the closed-form even-df tail against scipy's quantile, for every odd
    # order up to 401
    for order in range(3, 402, 2):
        reference = chi2.ppf(UNIFORMITY_LEVEL, order - 1)
        assert _uniformity_threshold(order) == pytest.approx(reference, rel=1e-12, abs=0), order
    # every suite that tests uniformity runs over GF(25)
    threshold = _uniformity_threshold(25)
    assert threshold == chi2.ppf(0.999, 24)
    assert f"{threshold:.2f}" == "51.18"


def test_uniformity_threshold_rejects_odd_df():
    for order in (2, 4, 8, 256):
        with pytest.raises(ValueError, match="even degrees of freedom"):
            _uniformity_threshold(order)
