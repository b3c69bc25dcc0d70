import json

from click.testing import CliRunner

from pvakit.cli import main


def run(*args):
    return CliRunner().invoke(main, args)


def test_vder():
    r = run("--params", "c", "vder", "1/2*u^3")
    assert r.exit_code == 0
    assert r.output.strip() == "3/2*u^2"


def test_integrate_success_and_failure():
    r = run("integrate", "u*u'")
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "1/2*u^2"
    r = run("integrate", "u")
    assert r.exit_code == 1
    r = run("integrate", "u'/u")
    assert r.exit_code == 1
    assert "logarithm" in r.output


def test_exactify_cmd():
    # "--" keeps the leading minus of a component from parsing as an option
    r = run(
        "--vars", "u_1,u_2,u_3", "exactify", "--", "u_3'", "-u_2''", "-u_1'"
    )
    assert r.exit_code == 0
    assert r.output.strip() == "-1/2*u_2''*u_2 + 1/2*u_3'*u_1 - 1/2*u_1'*u_3"


def test_frechet_cmd():
    r = run("frechet", "u''")
    assert r.exit_code == 0 and r.output.strip() == "d^2"
    r = run("frechet", "u''", "--adjoint")
    assert r.output.strip() == "d^2"


def test_bracket_cmd():
    r = run("--params", "c", "bracket", "--op", "u' + 2*u*d + c*d^3", "u", "u")
    assert r.exit_code == 0
    assert r.output.strip() == "c*lam^3 + 2*u*lam + u'"


def test_check_commands_exit_codes():
    assert run("--params", "c", "check-pva", "--op", "u' + 2*u*d + c*d^3").exit_code == 0
    assert run("check-pva", "--op", "d^2").exit_code == 1
    assert run("check-symplectic", "--op", "u'' + 2*u'*d").exit_code == 0
    assert run("check-symplectic", "--op", "d^2").exit_code == 1
    r = run(
        "--vars", "u,v", "--params", "c",
        "check-compat",
        "--op", "c*d^3 + 2*u*d + u', v*d; v*d + v', 0",
        "--op", "d, 0; 0, d",
    )
    assert r.exit_code == 0
    # individual failure reported as an error
    r = run("check-compat", "--op", "d^2", "--op", "d")
    assert r.exit_code == 1
    assert "not Hamiltonian" in r.output


def test_check_json_output():
    r = run("check-pva", "--op", "d^2", "--json")
    assert r.exit_code == 1
    data = json.loads(r.output)
    assert data["passed"] is False and data["failures"]


def test_parse_error_is_usage_error():
    r = run("vder", "u +")
    assert r.exit_code == 2
    r = run("vder", "zeta")
    assert r.exit_code == 2


def test_hierarchy_json_and_determinism():
    r1 = run("hierarchy", "kdv", "--depth", "3", "--json")
    r2 = run("hierarchy", "kdv", "--depth", "3", "--json")
    assert r1.exit_code == 0 and r1.output == r2.output
    data = json.loads(r1.output)
    assert data["steps"][2]["F"] == ["c*u'' + 3/2*u^2"]
    assert data["verification"]["orthogonality"] is True


def test_hierarchy_text_and_verify():
    r = run("hierarchy", "kn", "--verify")
    assert r.exit_code == 0
    assert "golden: pass" in r.output
    r = run("hierarchy", "hd", "--param", "alpha=1", "--param", "beta=0", "--depth", "2")
    assert r.exit_code == 0
    assert "verification: pass" in r.output


def test_lenard_cmd():
    r = run(
        "--params", "c",
        "lenard",
        "--op-h", "u' + 2*u*d + c*d^3",
        "--op-k", "d",
        "--seed", "1",
        "--depth", "2",
    )
    assert r.exit_code == 0
    assert "F^2 = (c*u'' + 3/2*u^2)" in r.output


def test_config_file(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"variables": ["u", "v"], "parameters": ["c"]}))
    r = run("--config", str(cfg), "vder", "c*u*v")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["c*v", "c*u"]


def test_check_json_deterministic():
    a = run("check-pva", "--op", "d^2", "--json").output
    b = run("check-pva", "--op", "d^2", "--json").output
    assert a == b


def _assert_usage_error(r):
    assert r.exit_code == 2, (r.exit_code, r.output, r.exception)
    assert "Error:" in r.output
    assert "Traceback" not in r.output


def test_bad_parameter_value_is_usage_error():
    _assert_usage_error(run("hierarchy", "hd", "--param", "alpha=abc"))


def test_repeated_variable_is_usage_error():
    _assert_usage_error(run("--vars", "u,u", "vder", "u"))


def test_zero_exponent_denominator_is_usage_error():
    _assert_usage_error(run("vder", "u^(1/0)"))


def test_chain_plan_without_chain_is_usage_error():
    _assert_usage_error(
        run("lenard", "--op-h", "u' + 2*u*d", "--op-k", "d", "--plan", "chain",
            "--seed", "1")
    )


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text('{"variables": ["u"')
    _assert_usage_error(run("--config", str(cfg), "vder", "u"))


def test_zero_depth_is_usage_error():
    _assert_usage_error(run("hierarchy", "kdv", "--depth", "0"))
