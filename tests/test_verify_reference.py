"""verify_sequence reads every flag from one pairing matrix per operator;
it must give the flags of the reference verifiers, which evaluate
orthogonality and every bracket on their own, on sound and on corrupted
records of all three chain kinds; the densities the chains carry are the
ones the defect-first reference attaches."""

from dataclasses import replace

import pytest

from pvakit import LocalFunctional, LogRequired, verify_sequence
from pvakit.hierarchies import FAMILIES, HierarchySpec, _Binding, generate
from pvakit.lenard import HierarchyRecord, _attach_density

import reference


def _family(name):
    """A freshly generated record with the operators it was built from."""
    spec = HierarchySpec(name).normalized()
    fam = FAMILIES[name]
    read = _Binding(fam, spec.params)
    return generate(spec), read.operator(fam.H), read.operator(fam.K)


def _flags(rec, H, K, verify):
    """Verification.to_json() of a fresh copy of rec, filled by verify."""
    copy = HierarchyRecord(rec.name, rec.kind, rec.params, list(rec.steps))
    if verify is reference.verify_sequence and rec.kind == "dirac":
        reference.verify_nls(copy, K)
    else:
        verify(H, K, copy)
    return copy.verification.to_json()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_flags_match_reference(name):
    rec, H, K = _family(name)
    want = _flags(rec, H, K, reference.verify_sequence)
    assert rec.verification.to_json() == want
    assert _flags(rec, H, K, verify_sequence) == want


def _perturb_F(steps):
    s = steps[2]
    F = (s.F[0] + s.F[0].ctx.gen(0, 1),) + tuple(s.F[1:])
    steps[2] = replace(s, F=F)


def _double_h(steps):
    steps[2] = replace(steps[2], h=steps[2].h + steps[2].h)


def _swap_h(steps):
    a, b = steps[1], steps[2]
    steps[1], steps[2] = replace(a, h=b.h), replace(b, h=a.h)


@pytest.mark.parametrize("name", ["kdv", "pkdv", "nls"])
@pytest.mark.parametrize("corrupt", [_perturb_F, _double_h, _swap_h])
def test_corrupted_flags_match_reference(name, corrupt):
    rec, H, K = _family(name)
    steps = list(rec.steps)
    corrupt(steps)
    bad = HierarchyRecord(rec.name, rec.kind, rec.params, steps)
    want = _flags(bad, H, K, reference.verify_sequence)
    got = _flags(bad, H, K, verify_sequence)
    assert got == want
    assert want != rec.verification.to_json()


@pytest.mark.parametrize("name", ["kdv", "pkdv", "nls"])
def test_each_pairing_evaluated_once(name, monkeypatch):
    rec, H, K = _family(name)
    calls = []
    is_zero = LocalFunctional.is_zero

    def counted(self):
        calls.append(self)
        return is_zero(self)

    monkeypatch.setattr(LocalFunctional, "is_zero", counted)
    _flags(rec, H, K, verify_sequence)
    operators = 1 if rec.kind == "dirac" else 2
    assert len(calls) == operators * len(rec.steps) ** 2


def _reference_density(gradient):
    """The density attached with closedness decided by the defect first."""
    if not reference.is_closed(gradient).closed:
        return None
    try:
        return reference.exactify(gradient)
    except LogRequired:
        return None


@pytest.mark.parametrize("name", list(FAMILIES))
def test_densities_match_reference(name):
    rec, H, K = _family(name)
    for s in rec.steps:
        gradient = K.apply(s.F) if rec.kind == "symplectic" else s.F
        want = _reference_density(gradient)
        assert (None if s.h is None else s.h.rep) == want


def test_unclosed_gradient_gets_no_density(ctx1):
    assert _attach_density((ctx1.gen(0, 1),)) is None
    assert _reference_density((ctx1.gen(0, 1),)) is None
