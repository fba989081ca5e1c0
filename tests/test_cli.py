"""Command-line behaviour: exit codes, output shapes, trace files."""

import json
import subprocess
import sys

import pytest

from lanecheck import cli
from lanecheck.checker import LivenessAny, LivenessCar, NoDeadlock, SafetyNoCollision

FIG1 = "scenarios/fig1.scn"


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


# --- query parsing ----------------------------------------------------------------


def test_parse_query_forms():
    assert cli.parse_query("no-deadlock") == NoDeadlock()
    assert cli.parse_query("safety") == SafetyNoCollision()
    assert cli.parse_query("liveness-any") == LivenessAny()
    assert cli.parse_query("liveness-any=A,B") == LivenessAny(frozenset({"A", "B"}))
    assert cli.parse_query("liveness-any=A, B ,") == LivenessAny(frozenset({"A", "B"}))
    assert cli.parse_query("liveness-car=E") == LivenessCar("E")


@pytest.mark.parametrize("text", ["", "deadlock", "liveness-any=", "liveness-car=", "AG safe"])
def test_parse_query_rejects(text):
    with pytest.raises(cli._UsageError):
        cli.parse_query(text)


# --- check ------------------------------------------------------------------------


def test_check_holds_exit_zero(capsys):
    code, out, _ = run_cli("check", FIG1, "--query", "safety", capsys=capsys)
    assert code == 0
    assert "verdict   holds" in out
    assert "query     safety" in out
    # groups {A,B} and {E}: 417 * 52 states, 417 + 52 stored
    assert "states    21684  (explored 469)" in out


def test_check_fails_exit_one_and_prints_witness(capsys):
    code, out, _ = run_cli("check", FIG1, "--query", "liveness-any", capsys=capsys)
    assert code == 1
    assert "verdict   fails" in out
    assert "zero-delay cycle" in out
    assert "# cycle:" in out
    assert "initial state:" in out
    assert "loops back to the state reached after step" in out


def test_check_budget_exit_two(capsys):
    code, out, _ = run_cli(
        "check", FIG1, "--query", "safety", "--budget", "40", capsys=capsys)
    assert code == 2
    assert "inconclusive" in out
    assert "state budget 40 exhausted" in out


def test_check_budget_zero_rejected(capsys):
    code, _, err = run_cli(
        "check", FIG1, "--query", "safety", "--budget", "0", capsys=capsys)
    assert code == 3
    assert "positive" in err


def test_check_variant_override(capsys):
    code, _, _ = run_cli(
        "check", FIG1, "--query", "liveness-any",
        "--variant", "original-plus-tw", capsys=capsys)
    assert code == 0


def test_check_json_document(capsys):
    code, out, _ = run_cli(
        "check", FIG1, "--query", "no-deadlock", "--json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["query"] == "no-deadlock"
    assert doc["scenario"]["lane_count"] == 4
    assert doc["scenario"]["variant"] == "original"
    assert doc["scenario"]["constants"]["t_lc"] == 3
    assert doc["verdict"]["outcome"] == "holds"
    assert doc["verdict"]["witness"] is None
    assert doc["verdict"]["states"] == 21684
    assert doc["verdict"]["explored"] == 469


def test_check_json_witness_shape(capsys):
    code, out, _ = run_cli(
        "check", FIG1, "--query", "liveness-any", "--json", capsys=capsys)
    assert code == 1
    witness = json.loads(out)["verdict"]["witness"]
    assert witness["cycle_start"] is not None
    assert witness["steps"]
    kinds = {s["step"]["kind"] for s in witness["steps"]}
    assert kinds == {"fire"}
    assert witness["initial"]["locations"]["A"] == "cruising"


def test_check_trace_file_with_witness(tmp_path, capsys):
    out_file = tmp_path / "witness.txt"
    code, _, _ = run_cli(
        "check", FIG1, "--query", "liveness-any", "--trace", str(out_file),
        capsys=capsys)
    assert code == 1
    body = out_file.read_text()
    assert body.startswith("initial state:")
    assert "# cycle:" in body
    assert "fire" in body


def test_check_trace_file_without_witness(tmp_path, capsys):
    out_file = tmp_path / "none.txt"
    code, _, _ = run_cli(
        "check", FIG1, "--query", "safety", "--trace", str(out_file), capsys=capsys)
    assert code == 0
    assert out_file.read_text() == "# no witness: verdict holds\n"


def test_check_guard_modes_agree(tmp_path, capsys):
    scn = tmp_path / "pair.scn"
    scn.write_text("lanes 3\ncar A lane 0 pos 0 size 4\ncar B lane 2 pos 2 size 4\n")
    codes = {}
    for mode in ("interval", "mlsl"):
        codes[mode], out, _ = run_cli(
            "check", str(scn), "--query", "liveness-any",
            "--guard-mode", mode, capsys=capsys)
    assert codes["interval"] == codes["mlsl"]


# --- eval -------------------------------------------------------------------------


def test_eval_true(capsys):
    code, out, _ = run_cli(
        "eval", FIG1, "--car", "E", "--formula", "<re(ego) ; free>", capsys=capsys)
    assert code == 0
    assert out.strip() == "true"


def test_eval_false(capsys):
    code, out, _ = run_cli(
        "eval", FIG1, "--car", "E", "--formula", "!true", capsys=capsys)
    assert code == 1
    assert out.strip() == "false"


def test_eval_horizon_narrows_the_view(capsys):
    other = "exists c. !(c = ego)"
    code, _, _ = run_cli("eval", FIG1, "--car", "E", "--formula", other, capsys=capsys)
    assert code == 0   # A and B are in E's standard view
    code, _, _ = run_cli(
        "eval", FIG1, "--car", "E", "--formula", other, "--horizon", "1",
        capsys=capsys)
    assert code == 1   # nobody near E itself


def test_eval_has_no_chop_mode_option(capsys):
    # the sweep evaluator is a test reference, not a command-line setting
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", FIG1, "--car", "B", "--formula", "<cl(ego)> ; true",
                  "--chop-mode", "sweep"])
    assert exc.value.code == 3
    assert "--chop-mode" in capsys.readouterr().err


def test_eval_json(capsys):
    code, out, _ = run_cli(
        "eval", FIG1, "--car", "E", "--formula", "<re(ego);free>", "--json",
        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["car"] == "E"
    assert doc["horizon"] == 36
    assert doc["formula"] == "<re(ego) ; free>"
    assert doc["result"] is True


def test_eval_unknown_car(capsys):
    code, _, err = run_cli(
        "eval", FIG1, "--car", "Q", "--formula", "true", capsys=capsys)
    assert code == 3
    assert "unknown car" in err
    assert "A, B, E" in err


def test_eval_bad_formula(capsys):
    code, _, err = run_cli(
        "eval", FIG1, "--car", "E", "--formula", "re(", capsys=capsys)
    assert code == 3
    assert "bad formula" in err


def test_eval_unbound_variable(capsys):
    code, _, err = run_cli(
        "eval", FIG1, "--car", "E", "--formula", "<re(d)>", capsys=capsys)
    assert code == 3
    assert "cannot evaluate" in err


# --- info -------------------------------------------------------------------------


def test_info_text(capsys):
    code, out, _ = run_cli("info", FIG1, capsys=capsys)
    assert code == 0
    assert "lanes      4" in out
    assert "A  lane 2  pos [10,15)" in out
    assert "variant    original" in out
    assert "controller 4 locations, 7 edges per car" in out
    assert "horizon    36" in out
    assert "groups     {A,B} {E}" in out


def test_info_automata_listing(capsys):
    code, out, _ = run_cli("info", FIG1, "--automata", capsys=capsys)
    assert code == 0
    assert "claim-up" in out
    assert "cruising -> claimed" in out
    assert "no potential collision" in out


def test_info_json(capsys):
    code, out, _ = run_cli("info", FIG1, "--json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lane_count"] == 4
    assert [c["name"] for c in doc["cars"]] == ["A", "B", "E"]
    assert doc["horizon"] == 36
    assert doc["controller"]["initial"] == "cruising"
    assert len(doc["controller"]["edges"]) == 7
    assert doc["groups"] == [["A", "B"], ["E"]]


def test_info_live_variant_shape(tmp_path, capsys):
    scn = tmp_path / "live.scn"
    scn.write_text(
        "lanes 2\ncar A lane 0 pos 0 size 4\ncar B lane 1 pos 10 size 4\nvariant live\n")
    code, out, _ = run_cli("info", str(scn), "--json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["controller"]["locations"]) == 5
    assert len(doc["controller"]["edges"]) == 8


# --- usage and error handling --------------------------------------------------------


def test_missing_scenario_file(capsys):
    code, _, err = run_cli(
        "check", "/no/such.scn", "--query", "safety", capsys=capsys)
    assert code == 3
    assert "cannot read scenario" in err


def test_broken_scenario_file(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("lanes 2\ncar A lane 9 pos 0 size 4\n")
    code, _, err = run_cli("check", str(scn), "--query", "safety", capsys=capsys)
    assert code == 3
    assert "lanecheck: error:" in err


def test_unknown_query_text(capsys):
    code, _, err = run_cli("check", FIG1, "--query", "everything", capsys=capsys)
    assert code == 3
    assert "unknown query" in err


def test_checker_error_maps_to_usage(capsys):
    code, _, err = run_cli(
        "check", FIG1, "--query", "liveness-car=Z", capsys=capsys)
    assert code == 3
    assert "lanecheck: error:" in err


@pytest.mark.parametrize("argv", [
    [],
    ["verify", FIG1],
    ["check", FIG1],
    ["check", FIG1, "--query", "safety", "--variant", "turbo"],
    ["check", FIG1, "--query", "safety", "--budget", "lots"],
    ["eval", FIG1, "--car", "E"],
])
def test_argparse_usage_exits_three(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lanecheck.cli", "check", FIG1, "--query", "safety"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict   holds" in proc.stdout
