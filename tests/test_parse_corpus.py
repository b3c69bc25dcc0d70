"""The three parse entry points against a recorded corpus.

`tests/data/parse_corpus.json` holds a few hundred well-formed and
malformed texts, each run through `parse_expression`,
`parse_operator_entry` and `parse_operator` in three contexts: `d` free,
`d` a variable and `d` a parameter.  Each record is
`[text, context, entry point, outcome]`, the outcome being the rendered
value or the exception type and message.  Running this file as a
script prints a fresh recording of the same texts to stdout.
"""

import json
import pathlib
import random
import sys

import pytest

from pvakit import Context, parse_expression, parse_operator, parse_operator_entry

CORPUS = pathlib.Path(__file__).parent / "data" / "parse_corpus.json"

CONTEXTS = {
    "d free": Context(("u", "v"), ("c",)),
    "d a variable": Context(("u", "d"), ("c",)),
    "d a parameter": Context(("u", "v"), ("c", "d")),
}

ENTRY_POINTS = {
    "parse_expression": lambda text, ctx: parse_expression(text, ctx).render(),
    "parse_operator_entry": lambda text, ctx: [
        [power, coeff.render()] for power, coeff in parse_operator_entry(text, ctx)
    ],
    "parse_operator": lambda text, ctx: parse_operator(text, ctx).render(),
}


def outcome(parse: str, text: str, context: str) -> list:
    try:
        return ["value", ENTRY_POINTS[parse](text, CONTEXTS[context])]
    except Exception as exc:  # the exception is the recorded outcome
        return [type(exc).__name__, str(exc)]


_FIXED = [
    "", " ", "0", "u", "u + ", "u +", "+", "-u", "--u", "u'''", "u^(4)", "u^4",
    "u^(4)^2", "u'^(-1)", "u^(-1/2)", "u^(1/0)", "u^(-x)", "u^", "u ^ x",
    "u) ", "(u", "q + 1", "3/2*u^2 + c*u''", "(u+v)/(u+1)", "u/(v*u')",
    "0^(-1)", "u/0", "1/2/3", "u @ v", "u'' ' ", "d", "d^3", "c*d^3",
    "u' + 2*u*d + c*d^3", "d*u", "u/d", "d/u", "d^(1/2)", "d^(-1)", "d^0",
    "d*d", "d*1", "d*2", "(u + d)*d", "(d + u)*d", "(u + v - d)", "(d)",
    "(u*d)^2", "-d^2 + u", "2*(u + c)*d^2", "(u + c)*d^2", "u*d*d + d",
    "d^2*u'", "d, 0; 0, d", "d, 0; 0,  v*q", "d,0;0,v*q", "u, v; w",
    "u' + 2*u*d, v*d; v*d + v', 0", "0, u*d; u*d + u', 0", ";", ",", "0, 0",
    " d ,  ; , u", "(u, v)", "(u; v), d", "d, 0; 0, d + ", "d; d, d",
    "u^(-1)*u'^(1/2)*v''", "c*c - c^2", "(u + 1)^2", "(u - u)^(-1)",
    "-(-(-u))", "(" * 60 + "u" + ")" * 60, "-" * 120 + "u", "u" + "^2" * 4,
    "u'''''''", "u^(12)", "u^(3)", "d^(4)", "alpha*u", "u_1 + u",
    "(2*d)^2", "d*(u*d)", "d*(2*d)", "(u*d)*d", "d, 0; d",
]

_ATOMS = [
    "u", "v", "u'", "v''", "u'''", "u^(4)", "c", "d", "q", "1", "2", "3",
    "0", "u^(-1/2)", "v^(3/2)", "d^2",
]
_NOISE = list("+-*/^()',; d0u@") + ["d^", "^(", "  "]


def _expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(_ATOMS)
    a, b = _expr(rng, depth - 1), _expr(rng, depth - 1)
    return rng.choice(
        ["%s + %s", "%s - %s", "%s*%s", "%s/%s", "(%s + %s)", "-%s*%s",
         "(%s)^2*%s", "%s^(-1)*%s", "%s*%s*d", "%s + %s*d^3"]
    ) % (a, b)


def _mutate(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 and text:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(_NOISE) + text[i:]
    return text[:i] + rng.choice(_NOISE) + text[i + 1:]


def corpus_texts() -> list:
    rng = random.Random(15)
    texts = list(_FIXED)
    for _ in range(80):
        texts.append(_expr(rng, rng.randint(1, 3)))
    for _ in range(30):
        rows = [
            ", ".join(_expr(rng, 1) if rng.random() < 0.7 else "0" for _ in range(2))
            for _ in range(2)
        ]
        texts.append(rng.choice(["; ", ";", " ; "]).join(rows))
    for _ in range(100):
        text = rng.choice(texts[len(_FIXED):] or _FIXED)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        texts.append(text)
    return list(dict.fromkeys(texts))


def record() -> list:
    return [
        [text, context, parse, outcome(parse, text, context)]
        for text in corpus_texts()
        for context in CONTEXTS
        for parse in ENTRY_POINTS
    ]


@pytest.mark.parametrize("parse", list(ENTRY_POINTS))
@pytest.mark.parametrize("context", list(CONTEXTS))
def test_parse_corpus(parse, context):
    with open(CORPUS) as fh:
        records = json.load(fh)
    cases = [(t, want) for t, c, p, want in records if (c, p) == (context, parse)]
    assert len(cases) >= 200
    wrong = [
        (text, want, got)
        for text, want in cases
        if (got := outcome(parse, text, context)) != want
    ]
    assert not wrong, wrong[:5]


if __name__ == "__main__":
    records = record()
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
