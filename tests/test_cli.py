import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import pvakit
from pvakit.cli import main
from pvakit.errors import NotExact


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


def test_bracket_writes_negative_terms_as_minus():
    r = run("bracket", "--op", "u'*d - d^3", "--", "u^2", "u'")
    assert r.exit_code == 0
    assert r.output.strip() == (
        "-2*u*lam^4 - 8*u'*lam^3 + (-12*u'' + 2*u'*u)*lam^2"
        " + (-8*u''' + 2*u''*u + 4*u'^2)*lam - 2*u^(4) + 4*u''*u'"
    )


def test_failing_jacobi_residual_writes_negative_terms_as_minus():
    r = run("check-pva", "--op", "u*d^3 + 3/2*u'*d^2 + 3/2*u''*d + 1/2*u'''")
    assert r.exit_code == 1
    assert "jacobi at (1, 1, 1): " in r.output
    assert " - 3/2*u'*lam^2*mu^3" in r.output
    assert "+ -" not in r.output


# the exact text of parametric coefficients, non-constant denominators
# included, as the CLI prints them in results and failure residuals
PARAMETRIC_TEXTS = [
    (
        ('--params', 'c', 'bracket', '--op', "u' + 2*u*d + c*d^3", 'u^2', 'u'),
        0,
        "2*c*u*lam^3 + 6*c*u'*lam^2 + (6*c*u'' + 4*u^2)*lam + 2*c*u'''"
        " + 6*u'*u\n",
    ),
    (
        (
            '--params', 'alpha,beta', 'bracket', '--op', 'alpha*d + beta*d^3',
            '(alpha+beta)^(-1)*u^2', "u'",
        ),
        0,
        "2*beta/(alpha + beta)*u*lam^4 + 8*beta/(alpha + beta)*u'*lam^3"
        " + (12*beta/(alpha + beta)*u'' + 2*alpha/(alpha + beta)*u)*lam^2"
        " + (8*beta/(alpha + beta)*u''' + 4*alpha/(alpha + beta)*u')*lam"
        " + 2*beta/(alpha + beta)*u^(4) + 2*alpha/(alpha + beta)*u''\n",
    ),
    (
        ('--params', 'c', 'vder', '(c+1)^(-1)*u^2'),
        0,
        '2/(c + 1)*u\n',
    ),
    (
        ('--params', 'c', 'vder', '(c^2-1)/(c-1)*u^3'),
        0,
        '(3*c + 3)*u^2\n',
    ),
    (
        ('--params', 'c', 'vder', "(8/3 - 8*c)*u^2*u'^2"),
        0,
        "(16*c - 16/3)*u''*u^2 + (16*c - 16/3)*u'^2*u\n",
    ),
    (
        ('--params', 'c', 'frechet', "c*u''' + (c+1)^(-1)*u*u'"),
        0,
        "1/(c + 1)*u' + 1/(c + 1)*u*d + c*d^3\n",
    ),
    (
        ('--params', 'c', 'frechet', '--adjoint', "c*u''' + (c+1)^(-1)*u*u'"),
        0,
        '-1/(c + 1)*u*d - c*d^3\n',
    ),
    (
        ('--params', 'c', 'integrate', "(c+1)^(-1)*u*u' + c^2*u'*u''"),
        0,
        "1/2*c^2*u'^2 + 1/2/(c + 1)*u^2\n"
        'const: 0\n',
    ),
    (
        ('--params', 'alpha,beta', 'integrate', "alpha/(alpha-beta)*u^2*u'"),
        0,
        '1/3*alpha/(alpha - beta)*u^3\n'
        'const: 0\n',
    ),
    (
        (
            '--params', 'alpha,beta', 'exactify', '--',
            "(alpha^2 - beta^2)/(alpha+beta)*u''",
        ),
        0,
        "(1/2*alpha - 1/2*beta)*u''*u\n",
    ),
    (
        ('--params', 'c', 'check-symplectic', '--op', "(c-1)/(c+1)*d^2 + c*u'*d"),
        1,
        'fail\n'
        "  skew: -c*u'' + (2*c - 2)/(c + 1)*d^2\n",
    ),
    (
        ('--params', 'c', 'check-pva', '--json', '--op', "(8/3 - 8*c)*u*d^3 + u'*d"),
        1,
        '{\n'
        '  "failures": [\n'
        '    {\n'
        '      "residual_text": "(8*c - 8/3)*u\'\'\' - u\'\' + (24*c - 8)*u\'\'*d'
        ' + (24*c - 8)*u\'*d^2",\n'
        '      "triple": null\n'
        '    }\n'
        '  ],\n'
        '  "passed": false\n'
        '}\n',
    ),
    (
        (
            '--params', 'c', 'check-pva', '--op',
            "(c-1/3)*u*d^3 + 3/2*(c-1/3)*u'*d^2 + 3/2*(c-1/3)*u''*d + 1/2*(c-1/3)*u'''",
        ),
        1,
        'fail\n'
        "  jacobi at (1, 1, 1): (3/2*c^2 - c + 1/6)*u'*lam^5"
        " + (15/4*c^2 - 5/2*c + 5/12)*u'*lam^4*mu"
        " + (15/4*c^2 - 5/2*c + 5/12)*u''*lam^4"
        " + (3/2*c^2 - c + 1/6)*u'*lam^3*mu^2"
        " + (6*c^2 - 4*c + 2/3)*u''*lam^3*mu + (9/2*c^2 - 3*c + 1/2)*u'''*lam^3"
        " + (-3/2*c^2 + c - 1/6)*u'*lam^2*mu^3"
        " + (9/2*c^2 - 3*c + 1/2)*u'''*lam^2*mu"
        ' + (3*c^2 - 2*c + 1/3)*u^(4)*lam^2'
        " + (-15/4*c^2 + 5/2*c - 5/12)*u'*lam*mu^4"
        " + (-6*c^2 + 4*c - 2/3)*u''*lam*mu^3"
        " + (-9/2*c^2 + 3*c - 1/2)*u'''*lam*mu^2"
        " + (3/4*c^2 - 1/2*c + 1/12)*u^(5)*lam + (-3/2*c^2 + c - 1/6)*u'*mu^5"
        " + (-15/4*c^2 + 5/2*c - 5/12)*u''*mu^4"
        " + (-9/2*c^2 + 3*c - 1/2)*u'''*mu^3 + (-3*c^2 + 2*c - 1/3)*u^(4)*mu^2"
        ' + (-3/4*c^2 + 1/2*c - 1/12)*u^(5)*mu\n',
    ),
    (
        (
            '--vars', 'u,v', '--params', 'c', 'check-compat', '--op', 'd, 0; 0, d',
            '--op', "(c+1)^(-1)*v' + 2/(c+1)*v*d, 0; 0, 0",
        ),
        1,
        'fail\n'
        '  jacobi at (1, 1, 2) for ops (1, 2): -1/(c + 1)*lam^2'
        ' + 1/(c + 1)*mu^2\n'
        '  jacobi at (1, 2, 1) for ops (1, 2): -2/(c + 1)*lam*mu'
        ' - 1/(c + 1)*mu^2\n'
        '  jacobi at (2, 1, 1) for ops (1, 2): 1/(c + 1)*lam^2'
        ' + 2/(c + 1)*lam*mu\n',
    ),
    # a unit coefficient of d^k drops out, and a negative coefficient over a
    # non-constant denominator is a " - " term
    (('frechet', '--', "-u''"), 0, '-d^2\n'),
    (('frechet', '--', "u'' - u'''"), 0, 'd^2 - d^3\n'),
    (('--params', 'c', 'vder', '--', "u'^2 - u^2/(c+1)"), 0, "-2*u'' - 2/(c + 1)*u\n"),
]


@pytest.mark.parametrize("argv, code, text", PARAMETRIC_TEXTS,
                         ids=[str(i) for i in range(len(PARAMETRIC_TEXTS))])
def test_parametric_coefficient_texts(argv, code, text):
    r = run(*argv)
    assert (r.exit_code, r.output) == (code, text)


@pytest.mark.parametrize("expr", ["u/(2-2)", "u*1/0", "u^2/(c-c)", "0^(-1)*u", "(c-c)^(-1)*u"])
def test_division_by_zero_is_named(expr):
    r = run("--params", "c", "vder", expr)
    assert r.exit_code == 2
    assert "Error: division by zero" in r.output


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


@pytest.mark.parametrize("op", ["d, 0, 0; 0, d, 0; 0, 0, d", "d"])
@pytest.mark.parametrize("command", ["check-pva", "check-symplectic", "check-compat"])
def test_operator_of_wrong_size_is_usage_error(command, op):
    r = run("--vars", "u,v", command, "--op", op)
    assert r.exit_code == 2, (r.exit_code, r.output, r.exception)
    assert "must be 2 x 2" in r.output


def test_incompatible_pair_names_ops_and_pairwise_residuals():
    args = ("--vars", "u,v", "check-compat",
            "--op", "d, 0; 0, d", "--op", "v' + 2*v*d, 0; 0, 0")
    r = run(*args)
    assert r.exit_code == 1
    assert r.output == (
        "fail\n"
        "  jacobi at (1, 1, 2) for ops (1, 2): -lam^2 + mu^2\n"
        "  jacobi at (1, 2, 1) for ops (1, 2): -2*lam*mu - mu^2\n"
        "  jacobi at (2, 1, 1) for ops (1, 2): lam^2 + 2*lam*mu\n"
    )
    r = run(*args, "--json")
    assert r.exit_code == 1
    expected = {
        "passed": False,
        "failures": [
            {"pair": [1, 2], "triple": [1, 1, 2], "residual_text": "-lam^2 + mu^2"},
            {"pair": [1, 2], "triple": [1, 2, 1], "residual_text": "-2*lam*mu - mu^2"},
            {"pair": [1, 2], "triple": [2, 1, 1], "residual_text": "lam^2 + 2*lam*mu"},
        ],
    }
    assert r.output == json.dumps(expected, indent=2, sort_keys=True) + "\n"


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


def test_lenard_json_pieces_join_to_the_dumps_text():
    """--json writes the record in pieces of 4096 encoder chunks; a depth-400
    record spans three of them and prints exactly its json.dumps text."""
    argv = ["lenard", "--op-h", "d^3", "--op-k", "d", "--seed", "1", "--depth", "400"]
    ctx = pvakit.Context(("u",))
    H, K = pvakit.parse_operator("d^3", ctx), pvakit.parse_operator("d", ctx)
    rec = pvakit.lenard_extend(H, K, [(ctx.one(),)], 400, name="lenard")
    pvakit.verify_sequence(H, K, rec)
    r = run(*argv, "--json")
    assert r.exit_code == 0
    assert r.output == json.dumps(rec.to_json(), indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("option", [["--plan", "chain"], ["--chain", "e"]])
def test_removed_plan_and_chain_options_are_usage_errors(option):
    """The solver is read off K, so lenard has no --plan and no --chain."""
    r = run("lenard", "--op-h", "u' + 2*u*d", "--op-k", "d", "--seed", "1", *option)
    _assert_usage_error(r)
    assert "No such option" in r.output and option[0] in r.output


def test_lenard_without_a_solver_is_one_line_error():
    """K = d o u o d has no triangle of pivots m0 o d^r o m1."""
    r = run("lenard", "--op-h", "d^3", "--op-k", "u*d^2 + u'*d", "--seed", "1")
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: K entry (0, 0) = u'*d + u*d^2 is not")
    assert r.stderr.count("\n") == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)


@pytest.mark.parametrize("argv, last", [
    (["--op-h", "d", "--op-k", "d", "--seed", "u", "--seed", "u^2"],
     "error: seed vectors do not satisfy the recursion"),
    (["--op-h", "1", "--op-k", "d", "--seed", "u'*u^(-1)", "--depth", "1"],
     "error: step 1: term u^(-1) needs a logarithm in u"),
    (["--op-h", "1", "--op-k", "d", "--seed", "u'^2", "--depth", "1"],
     "error: step 1: nonzero variational derivative, not a total derivative"),
    (["--op-h", "1", "--op-k", "d", "--seed", "1/2", "--depth", "1"],
     "error: step 1: constant obstruction 1/2 in a derivative inversion"),
    (["--op-h", "1", "--op-k", "d", "--seed", "c/2", "--depth", "1"],
     "error: step 1: constant obstruction 1/2*c in a derivative inversion"),
])
def test_unsolvable_lenard_chain_is_one_line_error(argv, last):
    """Seeds off the recursion, and a step whose d^{-1} needs a logarithm,
    does not exist or leaves a constant, name the step; the constant is
    written in the session's parameter names."""
    r = run("--params", "c", "lenard", *argv)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.splitlines()[-1] == last


def test_lenard_prints_no_seed_past_depth():
    """Both seeds are checked, but --depth 0 prints F^0 only."""
    r = run("--vars", "u,v", "lenard", "--op-h", "u' + 2*u*d, v*d; v' + v*d, 0",
            "--op-k", "d, 0; 0, d", "--seed", "0,1", "--seed", "1,0", "--depth", "0")
    assert r.exit_code == 0, r.output
    assert r.stdout.splitlines() == ["F^0 = (0, 1)", "h_0 = v"]


def test_lenard_reads_the_chain_solver_off_k():
    """HD's K = u' + 2 u d is solved as 2 u^(1/2) o d o u^(1/2)."""
    r = run("--params", "alpha,beta", "lenard", "--op-h", "alpha*d + beta*d^3",
            "--op-k", "u' + 2*u*d", "--seed", "u^(-1/2)", "--depth", "2")
    assert r.exit_code == 0, r.output
    assert r.stdout.splitlines()[2] == (
        "F^1 = (-1/4*beta*u''*u^(-5/2) + 5/16*beta*u'^2*u^(-7/2) + 1/4*alpha*u^(-3/2))"
    )


def test_session_without_variables_is_usage_error():
    for names in ("", ","):
        r = run("--vars", names, "vder", "1")
        _assert_usage_error(r)
        assert "at least one variable" in r.output


def test_config_without_variables_is_usage_error(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"variables": [], "parameters": ["c"]}))
    r = run("--config", str(cfg), "check-pva", "--op", "0")
    _assert_usage_error(r)
    assert "at least one variable" in r.output


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text('{"variables": ["u"')
    _assert_usage_error(run("--config", str(cfg), "vder", "u"))


def test_wrong_component_count_is_usage_error():
    r = run("--vars", "u,v", "exactify", "u")
    assert r.exit_code == 2 and "expected 2 components" in r.output
    r = run("--vars", "u,v", "frechet", "u")
    assert r.exit_code == 2 and "expected 2 components" in r.output
    r = run("lenard", "--op-h", "d^3", "--op-k", "d", "--seed", "1,2")
    assert r.exit_code == 2 and "expected 1 component\n" in r.output


def test_in_process_runs_release_their_streams():
    """main() run in process under redirected streams, as an embedding
    program does, keeps none of them (nor their text) alive."""
    refs = []
    for argv in (
        ["hierarchy", "kdv", "--json"],
        ["check-pva", "--op", "d^2"],
        ["integrate", "u^2"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit):
                main(argv, prog_name="pvakit")
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"),
    reason="RLIMIT_AS of a child process needs Linux",
)
def test_certified_deep_chain_fits_in_bounded_memory():
    """A certified chain keeps no per-pair state: depth 6400 runs in a
    child whose address space is capped at 200 MB (N x N pairing matrices
    would need more)."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    argv = ["lenard", "--op-h", "d^3", "--op-k", "d", "--seed", "1", "--depth", "6400",
            "--json"]
    r = subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20)),
        timeout=300,
    )
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    record = json.loads(r.stdout)
    assert len(record["steps"]) == 6401
    flags = record["verification"]
    assert all(flags[k] for k in flags if k != "closed") and all(flags["closed"])


def test_certified_deep_chain_walks_no_pair_of_exact_densities():
    """The involution walk visits only the failing pairings and the pairs
    with an inexact density, so a certified chain of depth 20000 verifies
    in about a second; a walk over all N^2/2 pairs takes minutes."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    argv = ["lenard", "--op-h", "d^3", "--op-k", "d", "--seed", "1", "--depth", "20000",
            "--json"]
    r = subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env, timeout=30,
    )
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    assert len(json.loads(r.stdout)["steps"]) == 20001


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"),
    reason="RLIMIT_AS of a child process needs Linux",
)
def test_out_of_memory_is_a_one_line_error():
    """A run that exhausts a 100 MB address space exits 1 with one error
    line: the product has 160,801 terms with coefficients of hundreds of
    digits, and its variational derivative does not fit in 400 MB."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    argv = ["vder", "(1 + u)^400*(1 + u')^400"]
    r = subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20)),
        timeout=300,
    )
    stderr = r.stderr.decode()
    assert r.returncode == 1, stderr[-2000:]
    assert "Traceback" not in stderr
    assert stderr == "error: out of memory\n"


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"),
    reason="RLIMIT_AS of a child process needs Linux",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["vder", "2^99999999999999999999*u"],
        ["check-pva", "--op", "(2*d)^99999999999999999999"],
        ["vder", "(2*u)^99999999999999999999"],
        ["vder", "(u+2)^99999999999999999999"],
        ["check-pva", "--op", "(2*u*d)^99999999999999999999"],
        ["vder", "2^(-99999999999999999999)*u"],
        ["vder", "(2*u)^(-99999999999999999999)"],
        ["--params", "c", "vder", "(2*c*u)^99999999999999999999"],
        ["--params", "c", "vder", "(2*c)^(-99999999999999999999)*u"],
        ["--params", "c", "check-pva", "--op", "(2*c*u*d)^99999999999999999999"],
        ["frechet", "--adjoint", "u^(99999999999999999999)*u"],
        ["check-pva", "--op", "u*d^99999999999999999999"],
    ],
)
def test_a_power_of_a_number_past_any_memory_is_refused_at_once(argv):
    """2^(10^20) has 10^20 bits: the power is refused before the first
    multiplication, so the run ends with the out-of-memory line at once
    instead of squaring 2 until a 400 MB address space runs out (about
    4 s of CPU time, past the 2 s the child may use).  So is a power of a
    base whose largest or smallest term has the coefficient 2, or a
    parametric coefficient of scale 2, which its power raises to
    2^(10^20): 2*u, u + 2 (whose smallest term is 2), 2*c*u, and the
    operators 2*u*d and 2*c*u*d, whose powers have the top coefficient
    (2*u)^(10^20) or (2*c*u)^(10^20).  A negative power is the power of
    the inverse, whose coefficient 1/2 or 1/(2*c) has as many bits.  A
    gap d^(10^20) over the one non-constant coefficient u, in the adjoint
    of u^(N)*u's Frechet derivative and of u*d^N, has 10^20 + 1 terms."""
    r = _run_capped(argv)
    stderr = r.stderr.decode()
    assert r.returncode == 1, stderr[-2000:]
    assert stderr.strip().splitlines()[-1] == "error: out of memory"


def _run_capped(argv):
    """pvakit argv in a child limited to 400 MB of address space and 2 s
    of CPU time."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (2, 2))

    return subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env, preexec_fn=capped, timeout=20,
    )


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"),
    reason="RLIMIT_AS of a child process needs Linux",
)
@pytest.mark.parametrize(
    "text, out",
    [
        ("c^(-99999999999999999999)*u", "1/c^99999999999999999999"),
        (
            "(c*u)^(-99999999999999999999)",
            "-99999999999999999999/c^99999999999999999999*u^(-100000000000000000000)",
        ),
    ],
)
def test_a_negative_power_of_a_unit_scale_answers_at_once(text, out):
    """c^(-N) is (1/c)^N, squared and multiplied as a constant of scale 1
    in about 2 log2 N steps, which the power guard does not refuse."""
    r = _run_capped(["--params", "c", "vder", text])
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    assert r.stdout.decode() == out + "\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["vder", "u^(99999999999999999999)"], "0"),
        (
            ["frechet", "u^(99999999999999999999)*u"],
            "u^(99999999999999999999) + u*d^99999999999999999999",
        ),
        (["vder", "u*u^(99999999999999999998)"], "2*u^(99999999999999999998)"),
    ],
)
def test_a_twenty_digit_derivative_order_answers_at_once(argv, out):
    """delta and D_f visit only the orders f has, a constant dies after one
    total derivative, and a linear expression shifts its orders in one
    step, so an order of 10^20 costs no loop over it."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env, timeout=20,
    )
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    assert r.stdout.decode() == out + "\n"


N = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["check-pva", "--op", "d^" + N], 0, "pass"),
        (["check-symplectic", "--op", "d^" + N], 0, "pass"),
        (["bracket", "--op", "d^" + N, "u", "u"], 0, "lam^" + N),
        (
            ["frechet", "--adjoint", "u^(%s) + u'^2" % N],
            0,
            "-2*u'' - 2*u'*d - d^" + N,
        ),
        (["exactify", "u^(%s)" % N], 1, "error: defect operator: 2*d^" + N),
        (
            ["lenard", "--op-h", "d^3", "--op-k", "d^" + N, "--seed", "1"],
            0,
            "F^0 = (1)\nh_0 = u\nF^1 = (0)\nh_1 = 0\nF^2 = (0)\nh_2 = 0"
            "\nF^3 = (0)\nh_3 = 0",
        ),
        (["check-pva", "--op", "(-d)^" + N], 0, "pass"),
        (["--params", "c", "check-pva", "--op", "(c*d)^" + N], 0, "pass"),
    ],
)
def test_a_twenty_digit_gap_with_constant_coefficients_answers_at_once(argv, code, out):
    """d^g o x takes Leibniz steps only while a coefficient is not
    constant, the adjoint visits only the orders its entry has, the
    triangle solver stops integrating a zero right side, and the parser
    reads (c*d)^k with a constant c as c^k*d^k, so an operator d^(10^20)
    costs no loop over its order."""
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "pvakit.cli"] + argv,
        capture_output=True, env=env, timeout=20,
    )
    assert r.returncode == code, r.stderr.decode()[-2000:]
    assert (r.stdout + r.stderr).decode() == out + "\n"


def test_numbers_past_the_digit_limit_are_one_line_errors():
    """A result with a 6,021-digit coefficient cannot be printed, and a
    5,000-digit literal cannot be read: exit 1 with one error line, and a
    parse error at the literal.  Neither raises the interpreter's limit."""
    r = run("vder", "2^20000*u")
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
    assert r.stderr == (
        "error: Exceeds the limit (4300 digits) for integer string conversion\n"
    )
    for text, pos in (("9" * 5000 + "*u", 0), ("u + " + "9" * 5000, 4)):
        r = run("vder", text)
        _assert_usage_error(r)
        assert r.stderr.splitlines()[-1] == (
            "Error: integer literal too long (5000 digits) (at position %d)" % pos
        )
    assert sys.get_int_max_str_digits() == 4300
    _assert_usage_error(run("vder", "2\u00b2*u"))


def test_library_error_of_any_command_is_a_one_line_error(monkeypatch):
    """A PvakitError from a command without a guard of its own exits 1 with
    one error line, as the guarded commands do: the group decides it."""
    def not_exact(f):
        raise NotExact("no potential")

    monkeypatch.setattr("pvakit.cli.variational_derivative", not_exact)
    r = run("vder", "u")
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
    assert r.output.splitlines()[-1] == "error: no potential"
    assert "Traceback" not in r.output


def test_zero_depth_is_usage_error():
    _assert_usage_error(run("hierarchy", "kdv", "--depth", "0"))


def test_deep_nesting_is_usage_error():
    parens = "(" * 200 + "u" + ")" * 200
    signs = "-" * 2000 + "u"
    for argv in (
        ["vder", parens],
        ["vder", "--", signs],
        ["check-pva", "--op", parens + "*d"],
        ["check-pva", "--op", signs],
    ):
        r = run(*argv)
        assert isinstance(r.exception, SystemExit), r.exc_info
        _assert_usage_error(r)
        assert "nested too deeply" in r.output
    assert run("vder", "(" * 99 + "u" + ")" * 99).output == "1\n"


def test_negative_lenard_depth_is_usage_error():
    _assert_usage_error(
        run("lenard", "--op-h", "d^3", "--op-k", "d", "--seed", "u", "--depth", "-2")
    )


def test_config_names_must_be_lists(tmp_path):
    cfg = tmp_path / "session.json"
    for data in ({"variables": "uv"}, {"parameters": "c"}, {"variables": None}):
        cfg.write_text(json.dumps(data))
        _assert_usage_error(run("--config", str(cfg), "vder", "u"))


@pytest.mark.parametrize("argv, last", [
    (["nls", "--param", "c"], "Error: hierarchy nls takes no parameters"),
    (["kdv", "--param", "x"], "Error: hierarchy kdv takes parameters c"),
    (["hd", "--param", "x=1"], "Error: hierarchy hd takes parameters alpha, beta"),
])
def test_hierarchy_parameter_errors_use_param_syntax(argv, last):
    r = run("hierarchy", *argv)
    _assert_usage_error(r)
    assert r.stderr.splitlines()[-1] == last


@pytest.mark.parametrize("argv", [
    ["kdv", "--param", "c=0"],
    ["kdv", "--param", "c=1", "--depth", "5"],
    ["kdv", "--param", "c=-2/3"],
    ["cnw", "--param", "c=0"],
    ["cnw", "--param", "c=5"],
    ["pkdv", "--param", "c=0"],
    ["pkdv", "--param", "c=1/3", "--depth", "5"],
    ["cnw_hd", "--param", "alpha=2"],
    ["cnw_hd", "--param", "alpha", "--depth", "3"],
    ["cnw_hd", "--param", "alpha=1/2", "--param", "beta=-3"],
    ["cnw_hd", "--param", "alpha=0", "--param", "beta=-3"],
    ["cnw_hd", "--param", "c=5"],
    ["hd", "--param", "alpha=2", "--param", "beta=0"],
])
def test_reference_values_hold_for_every_bound_c(argv):
    """Every family's reference values are polynomials in its parameters
    (c, or alpha and beta), so --verify compares them at any binding and
    passes."""
    r = run("hierarchy", *argv, "--verify")
    assert r.exit_code == 0, r.output
    assert r.output.splitlines()[-2:] == ["verification: pass", "golden: pass"]


# random CLI input, mostly well formed: sums of products of small powers,
# so that no valid input expands into a huge power of a sum
_ATOMS = (["u", "u'", "u''", "u^(4)", "c", "1", "2", "1/2"], ["v", "v'"])
_POWERS = ["", "", "", "^2", "^3", "^(-1)", "^(1/2)", "^(-3/2)"]
_JUNK = ["", "u +", "(u", "u)", "d*u", "u^x", "u^(1/0)", "u/(u + 1)", "zeta",
         "1/0", "(u + 1)^(1/2)", "0^(-1)", "#", ",", ";"]


@st.composite
def _expression(draw, atoms):
    def factor():
        base = draw(st.sampled_from(atoms))
        if draw(st.integers(0, 3)) == 0:
            return "(%s + %s)^%d" % (base, draw(st.sampled_from(atoms)), draw(st.integers(0, 3)))
        return base + draw(st.sampled_from(_POWERS))

    terms = ["*".join(factor() for _ in range(draw(st.integers(1, 2))))
             for _ in range(draw(st.integers(1, 2)))]
    return draw(st.sampled_from([" + ", " - "])).join(terms)


@st.composite
def _operator(draw, atoms, size):
    def entry():
        terms = []
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, 3))
            e = draw(_expression(atoms))
            terms.append(e if k == 0 else "(%s)*d^%d" % (e, k))
        return " + ".join(terms) or "0"

    return "; ".join(", ".join(entry() for _ in range(size)) for _ in range(size))


@st.composite
def _argvs(draw):
    nvars = draw(st.integers(1, 2))
    atoms = _ATOMS[0] + (_ATOMS[1] if nvars == 2 else [])
    session = ["--vars", "u,v"][: 2 * (nvars - 1)] + ["--params", "c"]

    def text(kind):
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(_JUNK))
        if kind == "op":
            return draw(_operator(atoms, nvars))
        if kind == "vec":
            return ",".join(draw(_expression(atoms)) for _ in range(nvars))
        return draw(_expression(atoms))

    command = draw(st.sampled_from([
        ["vder", "e"], ["integrate", "e"], ["exactify", "--"] + ["e"] * nvars,
        ["frechet", "--adjoint", "--"] + ["e"] * nvars, ["bracket", "--op", "op", "e", "e"],
        ["check-pva", "--op", "op"], ["check-symplectic", "--json", "--op", "op"],
        ["check-compat", "--op", "op", "--op", "op"],
        ["lenard", "--op-h", "op", "--op-k", "op", "--seed", "vec", "--depth", "1"],
        ["lenard", "--op-h", "op", "--op-k", "op", "--seed", "vec", "--depth", "1",
         "--kind", "symplectic"],
        ["hierarchy", "kn", "--depth", "1", "--verify"],
        ["hierarchy", "kdv", "--param", "c=1/2", "--depth", "1", "--verify"],
        ["hierarchy", "nls", "--param", "c", "--depth", "1"],
    ]))
    return session + [text(a) if a in ("e", "op", "vec") else a for a in command]


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_cli_fuzz_keeps_exit_code_contract(argv):
    r = CliRunner().invoke(main, argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        argv, r.exc_info)
    assert r.exit_code in (0, 1, 2), (argv, r.output)
