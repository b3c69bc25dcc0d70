"""The lambda-bracket and the three structure checks against a recorded
corpus.

`tests/data/structure_corpus.json` holds, for fixed operator and
expression texts, the rendered {f_lam g} of `lambda_bracket` and the
`to_json()` of `check_pva`, `check_symplectic` and `check_compatible`.
The operators are kdv- and hydrodynamic-type operators like the
benchmark's, the two-variable `cnw` and `cnw_hd` operators, the
Hamiltonian operators of `COMPAT_POOL` with all their pairs and triples,
skew-adjoint operators that fail the Jacobi or the closedness condition,
and operators that are not skew-adjoint; coefficients carry parameters
and exponents are negative or half-integer.  Each record is
`[entry point, context, texts, outcome]`, the outcome being the rendered
bracket or the JSON report, or the exception type and message.  Running
this file as a script prints a fresh recording of the same inputs to
stdout.
"""

import json
import pathlib
import random
import sys
from itertools import combinations

import pytest

from pvakit import (
    Context,
    check_compatible,
    check_pva,
    check_symplectic,
    lambda_bracket,
    parse_expression,
    parse_operator,
)

from test_brackets import COMPAT_POOL

CORPUS = pathlib.Path(__file__).parent / "data" / "structure_corpus.json"

CONTEXTS = {
    "u; c": Context(("u",), ("c",)),
    "u, v; c": Context(("u", "v"), ("c",)),
    "u, v; alpha, beta": Context(("u", "v"), ("alpha", "beta")),
    "u, v, w; c": Context(("u", "v", "w"), ("c",)),
}


def _bracket(ctx, op, f, g):
    H = parse_operator(op, ctx)
    return lambda_bracket(H, parse_expression(f, ctx), parse_expression(g, ctx)).render()


ENTRY_POINTS = {
    "lambda_bracket": _bracket,
    "check_pva": lambda ctx, op: check_pva(parse_operator(op, ctx)).to_json(),
    "check_symplectic": lambda ctx, op: check_symplectic(parse_operator(op, ctx)).to_json(),
    "check_compatible": lambda ctx, *ops: check_compatible(
        [parse_operator(op, ctx) for op in ops]
    ).to_json(),
}


def outcome(entry: str, context: str, texts: list) -> list:
    try:
        return ["value", ENTRY_POINTS[entry](CONTEXTS[context], *texts)]
    except Exception as exc:  # the exception is the recorded outcome
        return [type(exc).__name__, str(exc)]


# ---------------------------------------------------------------------------
# input texts

_RATIONALS = ("1", "2", "-1", "-3", "1/2", "-2/3", "3/4", "5/3")
_EXPONENTS = ("", "", "^2", "^3", "^(-1)", "^(-2)", "^(1/2)", "^(-1/2)", "^(3/2)")


def _signed_sum(terms) -> str:
    return " + ".join(terms).replace("+ -", "- ")


def _coeff(rng, params) -> str:
    c = rng.choice(_RATIONALS)
    if params and rng.random() < 0.5:
        c += "*" + rng.choice(params)
    return c


def _expr(rng, names, params, nterms=2, max_order=2) -> str:
    """A sum of coefficient times one or two powers of u_i^(n)."""
    terms = []
    for _ in range(rng.randint(1, nterms)):
        factors = [_coeff(rng, params)]
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(names) + "'" * rng.randint(0, max_order)
            factors.append(name + rng.choice(_EXPONENTS))
        terms.append("*".join(factors))
    return _signed_sum(terms)


def _hydro(rng) -> str:
    """g d + 1/2 g' as 1/2 (g d + d g), plus c d^3 when g is affine: a
    Hamiltonian operator for every g(u)."""
    affine = rng.random() < 0.35
    exps = ("", "^0") if affine else _EXPONENTS[2:] + ("",)
    g = _signed_sum(
        _coeff(rng, ("c",)) + "*u" + e
        for e in rng.sample(exps, rng.randint(1, 2 if affine else 3))
    )
    text = "1/2*((%s)*d + d*(%s))" % (g, g)
    return text + (" + %s*d^3" % _coeff(rng, ("c",)) if affine else "")


def _kdv(rng) -> str:
    return "%s*(u' + 2*u*d + c*d^3)" % rng.choice(_RATIONALS)


_WAVE = (("u' + 2*u*d", "v*d"), ("v' + v*d", "0"))


def _matrix(rows, r) -> str:
    return "; ".join(
        ", ".join(e if e == "0" else "%s*(%s)" % (r, e) for e in row) for row in rows
    )


def _cnw_pair(rng):
    H = ((_WAVE[0][0] + " + c*d^3", _WAVE[0][1]), _WAVE[1])
    K = (("d", "0"), ("0", "d"))
    return _matrix(H, rng.choice(_RATIONALS)), _matrix(K, rng.choice(_RATIONALS))


def _cnw_hd_pair(rng):
    H = (("alpha*d + beta*d^3", "0"), ("0", "alpha*d"))
    return _matrix(H, rng.choice(_RATIONALS)), _matrix(_WAVE, rng.choice(_RATIONALS))


def _skew(rng, names, params) -> str:
    """A skew-adjoint operator: a d^k + d^k a on the diagonal (k = 1 or 3),
    a d^k above it and (-1)^(k+1) d^k a below (k <= 1), a = one random
    term.  k = 3 takes an a free of derivatives and only below three
    variables, as the residuals are otherwise large."""
    n = len(names)
    top = 1 if n == 3 else 3
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j and rng.random() < 0.4:
                continue
            k = rng.choice((1, top)) if i == j else rng.randint(0, 1)
            a = _expr(rng, names, params, nterms=1, max_order=int(k < 3))
            d = "d" if k == 1 else "d^%d" % k
            if i == j:
                rows[i][i] = "(%s)*%s + %s*(%s)" % (a, d, d, a)
            else:
                rows[i][j] = "(%s)*%s" % (a, d) if k else a
                below = "%s*(%s)" % (d, a) if k else "(%s)" % a
                rows[j][i] = below if k % 2 else "-1*" + below
    return "; ".join(", ".join(row) for row in rows)


def _not_skew(rng, names, params) -> str:
    """A skew-adjoint operator plus the self-adjoint d a d in entry (0, 0)."""
    rows = [row.split(", ") for row in _skew(rng, names, params).split("; ")]
    a = _expr(rng, names, params, nterms=1, max_order=1)
    rows[0][0] = "%s + d*(%s)*d" % (rows[0][0], a)
    return "; ".join(", ".join(row) for row in rows)


def _any_op(rng, names, params) -> str:
    """A random operator, skew-adjoint or not."""
    n = len(names)
    return "; ".join(
        ", ".join(
            _signed_sum(
                "(%s)*d^%d" % (_expr(rng, names, params, 1, 1), rng.randint(0, 2))
                for _ in range(rng.randint(1, 2))
            )
            if rng.random() < 0.7 else "0"
            for _ in range(n)
        )
        for _ in range(n)
    )


def _contexts(context):
    ctx = CONTEXTS[context]
    return ctx.var_names, ctx.params


def corpus_inputs() -> list:
    rng = random.Random(11)
    cases = []

    def add(entry, context, *texts):
        cases.append((entry, context, list(texts)))

    def bracket(context, op):
        names, params = _contexts(context)
        f, g = (_expr(rng, names, params) for _ in range(2))
        add("lambda_bracket", context, op, f, g)

    for _ in range(16):
        bracket("u; c", _kdv(rng))
        bracket("u; c", _hydro(rng))
    for _ in range(6):
        for op in _cnw_pair(rng):
            bracket("u, v; c", op)
        for op in _cnw_hd_pair(rng):
            bracket("u, v; alpha, beta", op)
    for context in ("u; c", "u, v; c"):
        for _ in range(8):
            bracket(context, _any_op(rng, *_contexts(context)))

    pool = list(COMPAT_POOL)
    for op in pool:
        add("check_pva", "u, v; c", op)
        add("check_symplectic", "u, v; c", op)
    for _ in range(8):
        add("check_pva", "u; c", _hydro(rng))
        add("check_pva", "u; c", _kdv(rng))
    for context in CONTEXTS:
        names, params = _contexts(context)
        for _ in range(2 if len(names) == 3 else 5):
            add("check_pva", context, _skew(rng, names, params))
            add("check_symplectic", context, _skew(rng, names, params))
        for _ in range(3):
            add("check_pva", context, _not_skew(rng, names, params))
            add("check_symplectic", context, _not_skew(rng, names, params))
    for op in ("u'^(-1)*d*u'^(-1)", "d*u'^(-1)*d*u'^(-1)*d", "d^3", "d^2", "c*d^5"):
        add("check_symplectic", "u; c", op)

    for size in (2, 3):
        for ops in combinations(pool, size):
            add("check_compatible", "u, v; c", *ops)
    for _ in range(4):
        add("check_compatible", "u; c", _kdv(rng), "%s*d" % rng.choice(_RATIONALS))
        add("check_compatible", "u; c", _kdv(rng), _hydro(rng))
        add("check_compatible", "u; c", _hydro(rng), _hydro(rng))
        add("check_compatible", "u, v; c", *_cnw_pair(rng))
        add("check_compatible", "u, v; alpha, beta", *_cnw_hd_pair(rng))
    add("check_compatible", "u, v; c", pool[0], _skew(rng, ("u", "v"), ("c",)))
    add("check_compatible", "u, v; c", _not_skew(rng, ("u", "v"), ("c",)), pool[1])
    return cases


def record() -> list:
    return [[entry, context, texts, outcome(entry, context, texts)]
            for entry, context, texts in corpus_inputs()]


def _records(entry):
    with open(CORPUS) as fh:
        return [r for r in json.load(fh) if r[0] == entry]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_structure_corpus(entry):
    records = _records(entry)
    assert len(records) >= 40
    wrong = [
        (context, texts, want, got)
        for _, context, texts, want in records
        if json.dumps(got := outcome(entry, context, texts)) != json.dumps(want)
    ]
    assert not wrong, wrong[:3]


def test_corpus_covers_failing_pairs_and_triples():
    """All 120 pairs and triples of the pool are recorded, 88 of them
    failing with Jacobi residuals tagged by their pair."""
    pool = [
        r[3][1] for r in _records("check_compatible")
        if r[1] == "u, v; c" and all(t in COMPAT_POOL for t in r[2])
    ]
    assert [r["passed"] for r in pool].count(False) == 88
    assert len(pool) == 120
    assert all(f["pair"] for r in pool for f in r["failures"])


if __name__ == "__main__":
    records = record()
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
