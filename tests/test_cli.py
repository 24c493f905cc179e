import json

import pytest
from click.testing import CliRunner

from qpirlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_correctness_kerenidis_n4(runner, tmp_path):
    out = tmp_path / "report"
    res = runner.invoke(main, ["correctness", "--protocol", "kerenidis", "--n", "4",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads((tmp_path / "report.json").read_text())
    assert len(rows) == 64  # 16 databases x 4 indices
    assert all(r["ok"] and r["probability"] >= 1 - 1e-9 for r in rows)
    assert (tmp_path / "report.csv").exists()
    assert all("tolerance" in r for r in rows)


def test_bounds_nayak(runner):
    res = runner.invoke(main, ["bounds", "nayak", "--delta", "0", "--eps", "0",
                               "--n", "16"])
    assert res.exit_code == 0
    rows = json.loads(res.output[: res.output.rfind("]") + 1])
    assert rows[0]["value"] == 16.0


def test_privacy_honest_passes(runner):
    res = runner.invoke(main, ["privacy", "--protocol", "kerenidis", "--n", "2"])
    assert res.exit_code == 0, res.output


def test_privacy_purify_db_fails(runner):
    res = runner.invoke(main, ["privacy", "--protocol", "kerenidis", "--n", "2",
                               "--adversary", "purify-db", "--mode", "full"])
    assert res.exit_code == 1
    rows = json.loads(res.output[: res.output.rfind("]") + 1])
    verdict = [r for r in rows if r.get("ok") is False]
    assert verdict and verdict[0]["eps_lower"] > 0


def test_attack_purify(runner):
    res = runner.invoke(main, ["attack", "purify", "--n", "2"])
    assert res.exit_code == 0, res.output


def test_attack_reconstruct_csv(runner):
    res = runner.invoke(main, ["attack", "reconstruct", "--protocol", "kerenidis",
                               "--n", "2", "--mode", "coherent-reference",
                               "--format", "csv"])
    assert res.exit_code == 0, res.output
    assert "probability" in res.output


def test_bounds_theorem32(runner):
    res = runner.invoke(main, ["bounds", "theorem32", "--n", "2",
                               "--thetas", "0.1,0.4"])
    assert res.exit_code == 0, res.output


def test_bounds_chain_rule(runner):
    res = runner.invoke(main, ["bounds", "chain-rule", "--protocol", "send-db",
                               "--n", "2", "--mode", "classical-per-a",
                               "--database", "10"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command", [["attack", "reconstruct"], ["bounds", "chain-rule"]])
@pytest.mark.parametrize("mode,database,message", [
    ("coherent-reference", ["--database", "10"], "coherent-reference mode takes no database"),
    ("classical-per-a", [], "classical-per-a mode needs a database"),
])
def test_attack_arguments_the_attack_refuses_are_usage_errors(runner, command, mode,
                                                               database, message):
    res = runner.invoke(main, [*command, "--n", "2", "--mode", mode, *database])
    assert res.exit_code == 2, res.output
    assert not isinstance(res.exception, ValueError)
    assert message in res.output


@pytest.mark.parametrize("count", ["0", "-3"])
def test_correctness_rejects_fewer_than_one_database(runner, count):
    res = runner.invoke(main, ["correctness", "--n", "8", "--databases", count])
    assert res.exit_code == 2, res.output
    assert "--databases" in res.output


@pytest.mark.parametrize("args,option", [
    (["correctness", "--protocol", "send-db", "--n", "2", "--cleanup"], "--cleanup"),
    (["correctness", "--protocol", "send-index", "--n", "2", "--cleanup"], "--cleanup"),
    (["correctness", "--protocol", "counterexample", "--n", "2", "--cleanup"], "--cleanup"),
    (["spec", "--protocol", "send-db", "--n", "2", "--cleanup"], "--cleanup"),
    (["spec", "--protocol", "counterexample", "--n", "2", "--cleanup", "--database", "01"],
     "--cleanup"),
    (["spec", "--protocol", "counterexample", "--n", "2", "--database", "01"], "--database"),
])
def test_options_a_protocol_does_not_take_are_usage_errors(runner, args, option):
    # the builder would drop the option and report the plain protocol
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    protocol = args[args.index("--protocol") + 1]
    assert option in res.output and repr(protocol) in res.output
    assert '"cleanup": true' not in res.output


@pytest.mark.parametrize("protocol", ["send-db", "send-index", "counterexample"])
def test_correctness_builds_every_protocol_without_those_options(runner, protocol):
    # correctness hands every protocol but the counterexample its database
    res = runner.invoke(main, ["correctness", "--protocol", protocol, "--n", "2"])
    assert res.exit_code == 0, res.output


def test_unknown_protocol(runner):
    res = runner.invoke(main, ["correctness", "--protocol", "teleport", "--n", "2"])
    assert res.exit_code != 0


def test_spec_dump_matches_golden(runner):
    from pathlib import Path

    goldens = {
        # n = 2 pins the text form of hadamard, select-phase, select-cnot and
        # the register-mask inner-product-cnot besides n = 1's prepare and copy.
        "kerenidis_n1": ["--n", "1"],
        "kerenidis_n2": ["--n", "2"],
        # the cleanup rewind, the classical masks, the chained counterexample
        # with its measurement, and a baseline with an idle step
        "kerenidis_n4_cleanup": ["--n", "4", "--cleanup"],
        "kerenidis_n2_db10": ["--n", "2", "--database", "10"],
        "counterexample_n2": ["--protocol", "counterexample", "--n", "2"],
        "send-index_n2": ["--protocol", "send-index", "--n", "2"],
    }
    for golden, args in goldens.items():
        res = runner.invoke(main, ["spec", *args])
        assert res.exit_code == 0, golden
        text = (Path(__file__).parent / "golden" / f"{golden}.json").read_text()
        assert res.output.strip() == text.strip(), golden


def test_seed_fixes_randomized_fixtures(runner):
    a = runner.invoke(main, ["correctness", "--protocol", "kerenidis", "--n", "8",
                             "--databases", "3", "--seed", "11"])
    b = runner.invoke(main, ["correctness", "--protocol", "kerenidis", "--n", "8",
                             "--databases", "3", "--seed", "11"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_correctness_rows_record_their_seed(runner, tmp_path):
    for extra, want in (([], None), (["--databases", "2", "--seed", "11"], 11)):
        out = tmp_path / f"seed{want}"
        res = runner.invoke(main, ["correctness", "--n", "2", "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        rows = json.loads(out.with_suffix(".json").read_text())
        assert rows and all(r["seed"] == want for r in rows)


def test_suite_small(runner, tmp_path):
    res = runner.invoke(main, ["suite", "all", "--sizes", "1,2",
                               "--out", str(tmp_path / "suite")])
    assert res.exit_code == 0, res.output
    rows = json.loads((tmp_path / "suite.json").read_text())
    assert all(r["ok"] for r in rows)
    checks = {r["check"] for r in rows}
    assert {"correctness", "communication", "purification-attack", "theorem32",
            "counterexample-specious", "chain-rule", "nayak"} <= checks


@pytest.mark.parametrize("args,option", [
    (["correctness", "--n", "3"], "--n"),
    (["privacy", "--n", "0"], "--n"),
    (["privacy", "--protocol", "send-index", "--n", "1"], "--n"),
    (["correctness", "--protocol", "counterexample", "--n", "4"], "--n"),
    (["attack", "purify", "--n", "3"], "--n"),
    (["attack", "reconstruct", "--n", "3"], "--n"),
    (["bounds", "chain-rule", "--n", "3"], "--n"),
    (["bounds", "theorem32", "--n", "3"], "--n"),
    (["suite", "all", "--sizes", "3"], "--sizes"),
    (["suite", "all", "--sizes", "1,x"], "--sizes"),
    (["spec", "--n", "2", "--database", "0a"], "--database"),
    (["spec", "--n", "2", "--database", "011"], "--database"),
    (["privacy", "--n", "2", "--adversary", "bogus"], "--adversary"),
    (["privacy", "--n", "2", "--adversary", "gamma:x"], "--adversary"),
    (["bounds", "theorem32", "--thetas", "0.1,x"], "--thetas"),
    (["bounds", "theorem32", "--thetas", "nan"], "--thetas"),
    (["privacy", "--n", "2", "--adversary", "gamma:inf"], "--adversary"),
    (["bounds", "theorem32", "--tolerance", "-1"], "--tolerance"),
    (["attack", "purify", "--threshold", "-1"], "--threshold"),
    (["privacy", "--n", "2", "--target", "-1"], "--target"),
    (["correctness", "--n", "2", "--databases", "5"], "--databases"),
    (["bounds", "nayak", "--delta", "0.1", "--eps", "0.01", "--n", "-5"], "--n"),
    (["bounds", "nayak", "--delta", "0.1", "--eps", "0.01", "--n", "0"], "--n"),
    (["bounds", "nayak", "--delta", "nan", "--eps", "0.01", "--n", "4"], "--delta"),
    (["bounds", "nayak", "--delta", "-0.1", "--eps", "0.01", "--n", "4"], "--delta"),
    (["bounds", "nayak", "--delta", "0.1", "--eps", "1.5", "--n", "4"], "--eps"),
    (["bounds", "nayak", "--delta", "0.1", "--eps", "inf", "--n", "4"], "--eps"),
    (["bounds", "nayak", "--delta", "0.1", "--eps", "nan", "--n", "4"], "--eps"),
    (["bounds", "theorem32", "--n", "2", "--thetas", "0.1", "--tolerance", "nan"], "--tolerance"),
    (["bounds", "theorem32", "--n", "2", "--thetas", "0.1", "--tolerance", "inf"], "--tolerance"),
    (["attack", "purify", "--n", "2", "--threshold", "nan"], "--threshold"),
    (["attack", "purify", "--n", "2", "--threshold", "inf"], "--threshold"),
    (["privacy", "--n", "2", "--target", "nan"], "--target"),
    (["privacy", "--n", "2", "--target", "inf"], "--target"),
])
def test_arguments_the_library_refuses_are_usage_errors(runner, args, option):
    # exit 2 names the option; exit 1 stays a failed check
    # (test_privacy_purify_db_fails)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"'{option}'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args,cap,qubits", [
    (["suite", "all", "--sizes", "8"], "register bill needs 28 qubits, cap is 24", True),
    (["bounds", "theorem32", "--n", "8"], "register bill needs 28 qubits, cap is 24", True),
    (["privacy", "--n", "8"], "register bill needs 28 qubits, cap is 24", True),
    (["privacy", "--protocol", "send-db", "--n", "8"], "all 256 databases", False),
])
def test_a_cap_the_run_would_pass_is_a_usage_error(runner, args, cap, qubits):
    # one handler at the main group: the library's message, the override
    # hint only for the qubit cap, and exit 1 stays a failed check
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert cap in res.output and "Traceback" not in res.output
    assert ("QPIRLAB_QUBIT_CAP" in res.output) == qubits


def test_correctness_draws_distinct_databases(runner, tmp_path):
    out = tmp_path / "drawn"
    res = runner.invoke(main, ["correctness", "--n", "2", "--databases", "4", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads(out.with_suffix(".json").read_text())
    assert len(rows) == 8 and len({r["db"] for r in rows}) == 4
