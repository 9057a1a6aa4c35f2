"""The package's value records behave as the standard frozen dataclasses did.

One sample of each of the 25 record classes pins its ``repr`` (error
messages print them, e.g. the unreached modes of ``InconsistentSystem``),
equality and inequality, hashing and immutability.  A sample that holds a
dict, a list or an array is unhashable, as it was before.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from spherehess import __version__
from spherehess.cli import CheckResult, ReportEnvelope, ResultTable
from spherehess.confgroup import (
    ChartMap,
    ChartPrimitive,
    MoebiusElement,
    RepWeight,
    SphereGrid,
    TensorField,
    _PrimitiveKind,
)
from spherehess.exact import ExactConst
from spherehess.greens import (
    PipelineTrace,
    RadialGreen,
    RegularPartConfig,
    RegularPartResult,
    SphereConstants,
    TauTailIntegral,
    TraceKind,
)
from spherehess.ktypes import DominantWeight, KType
from spherehess.qcurv import SymbolValue, _Cleared
from spherehess.spectrum import Classification, HessianKind, SpectrumTable
from spherehess.symbols import ExtremalStatement, Functional, PointData, QuadFormCoeffs

F = Fraction
EYE4, EYE5 = np.eye(4), np.eye(5)
K2, XI2 = np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 0.0])
K3, XI3 = np.eye(3), np.array([0.0, 0.0, 1.0])
NODE2, WEIGHT2 = np.zeros((1, 3)), np.array([4 * math.pi])
NODE3, WEIGHT3 = np.zeros((1, 4)), np.array([2 * math.pi**2])
DILATION = _PrimitiveKind.DILATION


def _tail(p):
    return TauTailIntegral(2, p, F(-1), ((-1, F(1)),), ((1, F(1, 2)),))


# (sample, a sample that differs in one field, the sample's repr)
CASES = {
    "KType": (lambda: KType(5, 0, 2), lambda: KType(5, 1, 2),
              "KType(dim_n=5, j=0, q=2)"),
    "DominantWeight": (lambda: DominantWeight((2, 0), 5),
                       lambda: DominantWeight((2, 1), 5),
                       "DominantWeight(entries=(2, 0), group_rank=5)"),
    "ExactConst": (lambda: ExactConst(F(3, 7), 2, F(1, 2)),
                   lambda: ExactConst(F(3, 7), 1, F(1, 2)),
                   "3/7 * 2^(1/2) * pi^2"),
    "SpectrumTable": (lambda: SpectrumTable(5, {KType(5, 0, 2): F(1, 2)}),
                      lambda: SpectrumTable(5, {}),
                      "SpectrumTable(dim_n=5, entries={KType(dim_n=5, j=0, q=2): "
                      "Fraction(1, 2)})"),
    "Classification": (lambda: Classification(HessianKind.ZERO, "all modes"),
                       lambda: Classification(HessianKind.INDEFINITE, "all modes"),
                       "Classification(kind=<HessianKind.ZERO: 'ZERO'>, "
                       "kernel_description='all modes')"),
    "QuadFormCoeffs": (lambda: QuadFormCoeffs(F(1), F(-2)),
                       lambda: QuadFormCoeffs(F(1), F(-3)),
                       "QuadFormCoeffs(a=Fraction(1, 1), b=Fraction(-2, 1), "
                       "extra_factor=Fraction(1, 1))"),
    "PointData": (lambda: PointData(2, K2, XI2), lambda: PointData(3, K3, XI3),
                  "PointData(n=2, k=array([[1., 0.],\n       [0., 2.]]), "
                  "xi=array([1., 0.]))"),
    "ExtremalStatement": (
        lambda: ExtremalStatement(Functional.DET_L, 3, 1, 1, -1, "(-1)^k", "max"),
        lambda: ExtremalStatement(Functional.DET_L, 5, 1, 1, -1, "(-1)^k", "max"),
        "ExtremalStatement(functional=<Functional.DET_L: 'DET_L'>, n=3, k=1, "
        "c_sign=1, max_sign=-1, pattern='(-1)^k', text='max')"),
    "SymbolValue": (lambda: SymbolValue(2, (F(1), F(0)), F(3)),
                    lambda: SymbolValue(2, (F(1), F(0)), F(4)),
                    "SymbolValue(n=2, xi=(Fraction(1, 1), Fraction(0, 1)), "
                    "value=Fraction(3, 1))"),
    "_Cleared": (lambda: _Cleared(2, (F(1), F(0)), [1, 0], [[1, 0], [0, 1]], 1, 1, 1),
                 lambda: _Cleared(2, (F(1), F(0)), [1, 0], [[1, 0], [0, 1]], 1, 2, 1),
                 "_Cleared(n=2, xi=(Fraction(1, 1), Fraction(0, 1)), x=[1, 0], "
                 "kk=[[1, 0], [0, 1]], d=1, e=1, nrm=1)"),
    "SphereConstants": (
        lambda: SphereConstants(5, ExactConst(F(1)), ExactConst(F(2)), ExactConst(F(3))),
        lambda: SphereConstants(7, ExactConst(F(1)), ExactConst(F(2)), ExactConst(F(3))),
        "SphereConstants(n=5, boundary_volume=1, c_n=2, d_n=3)"),
    "TauTailIntegral": (lambda: _tail(1), lambda: _tail(2),
                        "TauTailIntegral(a=2, p=1, arctan_coeff=Fraction(-1, 1), "
                        "power_coeffs=((-1, Fraction(1, 1)),), "
                        "rational_coeffs=((1, Fraction(1, 2)),))"),
    "RadialGreen": (lambda: RadialGreen(5, "L", (3,), abs),
                    lambda: RadialGreen(5, "L2", (3,), abs),
                    "RadialGreen(dim_n=5, kind='L', singular_orders=(3,), "
                    "evaluate=<built-in function abs>, terms=None)"),
    "RegularPartConfig": (lambda: RegularPartConfig(),
                          lambda: RegularPartConfig((1e-4, 1e-1)),
                          "RegularPartConfig(window=(0.001, 0.1))"),
    "RegularPartResult": (lambda: RegularPartResult(1.0, 0.5),
                          lambda: RegularPartResult(2.0, 0.5),
                          "RegularPartResult(value=1.0, error_estimate=0.5, "
                          "singular_coeffs={})"),
    "PipelineTrace": (lambda: PipelineTrace(TraceKind.L2, 1, 3, 0.25, 1e-9),
                      lambda: PipelineTrace(TraceKind.D2, 1, 3, 0.25, 1e-9),
                      "PipelineTrace(kind=<TraceKind.L2: 'L2'>, k=1, n=3, "
                      "value=0.25, error_estimate=1e-09)"),
    "MoebiusElement": (lambda: MoebiusElement(2, EYE4), lambda: MoebiusElement(3, EYE5),
                       "MoebiusElement(n=2, matrix=array([[1., 0., 0., 0.],\n"
                       "       [0., 1., 0., 0.],\n       [0., 0., 1., 0.],\n"
                       "       [0., 0., 0., 1.]]))"),
    "SphereGrid": (lambda: SphereGrid(2, NODE2, WEIGHT2),
                   lambda: SphereGrid(3, NODE3, WEIGHT3),
                   "SphereGrid(n=2, nodes=array([[0., 0., 0.]]), "
                   "weights=array([12.56637061]))"),
    "RepWeight": (lambda: RepWeight.of(2, 1), lambda: RepWeight.of(2, 0),
                  "RepWeight(n=2, rho=Fraction(1, 1), nu=Fraction(1, 1))"),
    "TensorField": (lambda: TensorField(2, abs), lambda: TensorField(3, abs),
                    "TensorField(n=2, raw=<built-in function abs>)"),
    "ChartPrimitive": (lambda: ChartPrimitive(DILATION, scale=2.0),
                       lambda: ChartPrimitive(DILATION, scale=3.0),
                       "ChartPrimitive(kind=<_PrimitiveKind.DILATION: 'DILATION'>, "
                       "vector=None, scale=2.0, rotation=None)"),
    "ChartMap": (lambda: ChartMap((ChartPrimitive(DILATION, scale=2.0),)),
                 lambda: ChartMap((ChartPrimitive(DILATION, scale=3.0),)),
                 "ChartMap(primitives=(ChartPrimitive(kind=<_PrimitiveKind.DILATION: "
                 "'DILATION'>, vector=None, scale=2.0, rotation=None),))"),
    "CheckResult": (lambda: CheckResult("c", "PASS", 0.5, 1.0),
                    lambda: CheckResult("c", "FAIL", 0.5, 1.0),
                    "CheckResult(name='c', status='PASS', residual=0.5, tolerance=1.0)"),
    "ResultTable": (lambda: ResultTable(("a",), (("1",),)),
                    lambda: ResultTable(("a",), (("2",),)),
                    "ResultTable(columns=('a',), rows=(('1',),))"),
    "ReportEnvelope": (lambda: ReportEnvelope("spectrum", {"dim": "5"}, ("r",), ()),
                       lambda: ReportEnvelope("signs", {"dim": "5"}, ("r",), ()),
                       "ReportEnvelope(command='spectrum', parameters={'dim': '5'}, "
                       f"results=('r',), checks=(), version={__version__!r})"),
}
MUTABLE = {"SpectrumTable", "RadialGreen"}
UNHASHABLE = {"PointData", "_Cleared", "RegularPartResult", "MoebiusElement",
              "SphereGrid", "ReportEnvelope"}


@pytest.mark.parametrize("name", CASES)
def test_record_parity(name):
    make, other, text = CASES[name]
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != c and not a == c
    first = next(iter(vars(a)))
    if name in MUTABLE:
        assert type(a).__hash__ is None
        setattr(a, first, getattr(c, first))
        assert getattr(a, first) == getattr(c, first)
        return
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(c, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert repr(a) == text


def test_hash_is_the_field_tuple_hash():
    # Sets and dicts of modes iterate in the order these hashes give.
    assert hash(KType(5, 0, 2)) == hash((5, 0, 2))
    assert hash(DominantWeight((2, 0), 5)) == hash(((2, 0), 5))


def test_default_factory_gives_each_instance_its_own_dict():
    a, b = RegularPartResult(1.0, 0.5), RegularPartResult(1.0, 0.5)
    assert a.singular_coeffs == {} and a.singular_coeffs is not b.singular_coeffs
    given = {-3: 1.0}
    assert RegularPartResult(1.0, 0.5, given).singular_coeffs is given


def test_derived_field_stays_out_of_init_eq_and_repr():
    tail = _tail(1)
    assert tail.tail(1.0) == tail.value(1.0)
    with pytest.raises(TypeError):
        TauTailIntegral(2, 1, F(-1), (), (), tail=abs)
    assert _tail(1) == tail and "tail=" not in repr(tail)


def test_standard_replace_copies_a_record():
    # The benchmark's tracer times the pulled-back fields this way.
    field = TensorField(2, abs)
    assert dataclasses.replace(field, raw=len) == TensorField(2, len)
    assert dataclasses.replace(_tail(1), p=2) == _tail(2)
    assert dataclasses.replace(_tail(1), p=2).tail(1.0) == _tail(2).tail(1.0)
