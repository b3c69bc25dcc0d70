"""One Lenard run computes each value once: inside the memo_scope that
lenard.run_chain opens, the one place where a run (hierarchies.generate,
the lenard command) opens its memo, delta of a density and an image
op . F are memoised by the identity of their arguments.  The record
equals the one built with no memo, and each run starts empty."""

import threading

import pytest
from click.testing import CliRunner

from pvakit import Context, algebra, lenard, parse_expression, parse_operator, varcalc
from pvakit.algebra import memo_scope
from pvakit.cli import main
from pvakit.hierarchies import (
    FAMILIES,
    HierarchySpec,
    _Binding,
    _params_json,
    generate,
)
from pvakit.operators import MatrixDiffOp


def _counted(monkeypatch):
    """Record the arguments of every delta and every image computed (not
    read from the memo); the lists keep them alive, so ids stay unique."""
    vders, images = [], []
    vder, image = varcalc._variational_derivative, MatrixDiffOp.apply

    def counted_vder(f):
        vders.append(f)
        return vder(f)

    def counted_image(op, vec):
        images.append((op, vec))
        return image(op, vec)

    monkeypatch.setattr(varcalc, "_variational_derivative", counted_vder)
    monkeypatch.setattr(MatrixDiffOp, "apply", counted_image)
    return vders, images


@pytest.mark.parametrize("name", list(FAMILIES))
def test_each_value_computed_once_per_run(name, monkeypatch):
    vders, images = _counted(monkeypatch)
    rec = generate(HierarchySpec(name))
    assert len({id(f) for f in vders}) == len(vders)
    for s in rec.steps:
        if s.h is not None:
            assert sum(f is s.h.rep for f in vders) == 1
    assert len({(id(op), id(v)) for op, v in images}) == len(images)
    if rec.kind == "dirac":
        # K P_n (the gradient) and H P_n (the flow) in lenard_extend, read
        # again by the witness check of verify_sequence
        for s in rec.steps:
            assert len({id(op) for op, v in images if v is s.P}) == 2
            assert sum(v is s.P for _, v in images) == 2
    assert algebra._memo.get() is None


def _unscoped(name):
    """The record of generate(HierarchySpec(name)), built with no memo."""
    spec = HierarchySpec(name)
    fam = FAMILIES[name]
    read = _Binding(fam, spec.params)
    H, K = read.operator(fam.H), read.operator(fam.K)
    seeds = [read.vector(s) for s in fam.seeds]
    params = _params_json(spec.params)
    rec = lenard.lenard_extend(
        H, K, seeds, spec.depth, fam.start, spec.name, fam.kind, params
    )
    return lenard.verify_sequence(H, K, rec)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_memoised_run_equals_the_unscoped_one(name):
    assert algebra._memo.get() is None
    want = _unscoped(name)
    got = generate(HierarchySpec(name))
    assert got.to_json() == want.to_json()
    assert got.verification == want.verification


def test_each_generate_starts_with_an_empty_memo(monkeypatch):
    sizes = []
    extend = lenard.lenard_extend

    def sized(*args):
        sizes.append(len(algebra._memo.get()))
        return extend(*args)

    monkeypatch.setattr(lenard, "lenard_extend", sized)
    first = generate(HierarchySpec("kdv")).to_json()
    assert generate(HierarchySpec("kdv")).to_json() == first
    assert sizes == [0, 0]
    assert algebra._memo.get() is None


def test_lenard_command_runs_in_one_scope(monkeypatch):
    seen = []
    verify = lenard.verify_sequence

    def scoped(H, K, rec):
        seen.append(len(algebra._memo.get()))
        return verify(H, K, rec)

    monkeypatch.setattr("pvakit.lenard.verify_sequence", scoped)
    argv = ["lenard", "--op-h", "u' + 2*u*d", "--op-k", "d", "--seed", "1"]
    r = CliRunner().invoke(main, argv)
    assert r.exit_code == 0, r.output
    assert len(seen) == 1 and seen[0] > 0
    assert algebra._memo.get() is None


def test_outside_a_scope_and_for_a_list_nothing_is_kept(ctx1, monkeypatch):
    """MatrixDiffOp.apply memoises nothing, in a scope or not; lenard's
    images are kept only in a scope and only for a tuple."""
    vders, images = _counted(monkeypatch)
    u = ctx1.gen(0)
    f = u * u
    op = MatrixDiffOp.derivative(ctx1)
    vec = (u,)
    for _ in range(2):
        varcalc.variational_derivative(f)
        lenard._image(op, vec)
    assert len(vders) == 2 and len(images) == 2
    with memo_scope():
        assert op.apply(vec) == op.apply(vec) == (ctx1.gen(0, 1),)
        assert len(images) == 4 and algebra._memo.get() == {}
        assert lenard._image(op, vec) is lenard._image(op, vec)
        listed = [u]
        assert lenard._image(op, listed) == lenard._image(op, listed)
        assert varcalc.variational_derivative(f) is varcalc.variational_derivative(f)
        with memo_scope():
            assert len(algebra._memo.get()) == 0
            varcalc.variational_derivative(f)
        assert len(algebra._memo.get()) == 4
    assert len(vders) == 4 and len(images) == 7
    assert algebra._memo.get() is None


# the README's two lenard examples: (session parameters, H, K, seed, depth)
README_CHAINS = [
    (("c",), "u' + 2*u*d + c*d^3", "d", "1", 3),
    (("alpha", "beta"), "alpha*d + beta*d^3", "u' + 2*u*d", "u^(-1/2)", 2),
]


@pytest.mark.parametrize("params, h, k, seed, depth", README_CHAINS)
def test_run_chain_equals_the_unscoped_run(params, h, k, seed, depth):
    ctx = Context(("u",), params)
    H, K = parse_operator(h, ctx), parse_operator(k, ctx)
    seeds = [(parse_expression(seed, ctx),)]
    want = lenard.verify_sequence(
        H, K, lenard.lenard_extend(H, K, seeds, depth, name="lenard")
    )
    got = lenard.run_chain(H, K, seeds, depth, name="lenard")
    assert got.to_json() == want.to_json()
    assert algebra._memo.get() is None


def test_a_failing_call_leaves_no_entry(ctx1):
    op = MatrixDiffOp.derivative(ctx1)
    with memo_scope():
        with pytest.raises(ValueError):
            op.apply((ctx1.gen(0), ctx1.gen(0)))
        assert algebra._memo.get() == {}
    assert algebra._memo.get() is None


def test_another_thread_does_not_share_the_memo():
    """The memo belongs to the thread (or task) that opened the scope."""
    seen = []
    other = threading.Thread(target=lambda: seen.append(algebra._memo.get()))
    with memo_scope():
        other.start()
        other.join(timeout=10)
    assert not other.is_alive()
    assert seen == [None]
