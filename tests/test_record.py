"""The immutable values: value semantics, copies and import cost.

RepSpec, RootIndex, CartanExponent, Weight, LWeight, USeries, URational,
FockState and OscWord share qloop.record.Record: all nine are equal by their
fields, refuse assignment and deletion, and copy and pickle to equal values.
The interned QRational and OpExpr take only qloop.record.Frozen, so a field
of the one object of a value cannot be deleted, and copy and pickle to that
object itself.  The repr literals below are the text the first five records
printed when they were frozen dataclasses; cli prints a RepSpec on stderr
when a check is undecided, so that text must not change.  A slot pattern
(RepSpec.pattern()) is a plain tuple of kinds, not a record.
"""

import copy
import pathlib
import pickle
import subprocess
import sys

import pytest

import qloop
from qloop.borelrep import (CartanPower, Compose, Gen, OscWord, RepSpec, Scale, Sum,
                            get_evaluator, image_e)
from qloop.exactfield import QRational
from qloop.fock import FockState
from qloop.lweights import (LWeight, Weight, closed_psi, oscillator_lweight, phi_series,
                            prefundamental)
from qloop.record import Record
from qloop.rootsys import CartanExponent, RootIndex

ONE = QRational.one()
qp = QRational.q_power


def _equal_and_immutable(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != tuple(getattr(a, name) for name in fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def _refused(message, cls, *args):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_rep_spec():
    _equal_and_immutable(lambda: RepSpec(3, 2, True, qp(2)), ("l", "a", "bar", "zs"))
    spec = RepSpec(2, 1)
    assert spec.bar is False and spec.zs is ONE
    assert spec == RepSpec(2, 1, False, ONE) == RepSpec(a=1, l=2) == RepSpec(2, 1, zs=ONE)
    assert RepSpec(2, 1, bar=True) == RepSpec(2, 1, True, ONE) != spec
    assert spec not in (RepSpec(2, 2), RepSpec(3, 1), RepSpec(2, 1, zs=qp(1)))
    assert repr(spec) == "RepSpec(l=2, a=1, bar=False, zs=1)"
    assert repr(RepSpec(3, 2, True, qp(2))) == "RepSpec(l=3, a=2, bar=True, zs=q^2)"
    _refused("need l >= 1", RepSpec, 0, 1)
    _refused("need 1 <= a <= l+1", RepSpec, 2, 0)
    _refused("need 1 <= a <= l+1", RepSpec, 2, 4)
    _refused("spectral twist must be nonzero", RepSpec, 2, 1, False, QRational.zero())


def test_mode_pattern():
    # a slot pattern is a plain tuple of kinds, immutable and hashable as it is
    assert type(RepSpec(3, 2).pattern()) is tuple
    assert RepSpec(3, 2).pattern() == ("minus", "minus", "plus")
    assert RepSpec(3, 2).pattern() != RepSpec(3, 3).pattern()
    assert hash(RepSpec(3, 2).pattern()) == hash(("minus", "minus", "plus"))


def test_root_index():
    _equal_and_immutable(lambda: RootIndex(2, (1, 1, 1)), ("l", "coeffs"))
    assert RootIndex.delta(2) == RootIndex(l=2, coeffs=(1, 1, 1)) != RootIndex.simple(2, 0)
    # records of different classes are never equal, even with equal fields
    assert RootIndex(2, (1, 1, 1)) != CartanExponent(2, (1, 1, 1))
    assert not RootIndex(2, (1, 1, 1)) == CartanExponent(2, (1, 1, 1))
    assert repr(RootIndex(2, (1, 1, 1))) == "RootIndex(l=2, coeffs=(1, 1, 1))"
    _refused("coefficient vector must have length l+1", RootIndex, 0, (1,))
    _refused("coefficient vector must have length l+1", RootIndex, 2, (1, 1))


def test_cartan_exponent():
    _equal_and_immutable(lambda: CartanExponent(2, (1, 0, -1)), ("l", "coeffs"))
    assert CartanExponent.h(2, 0) - CartanExponent.h(2, 2) == CartanExponent(2, (1, 0, -1))
    assert CartanExponent.zero(2) != CartanExponent.h(2, 1)
    assert repr(CartanExponent(2, (1, 0, -1))) == "CartanExponent(l=2, coeffs=(1, 0, -1))"
    _refused("coefficient vector must have length l+1", CartanExponent, 0, (1,))
    _refused("coefficient vector must have length l+1", CartanExponent, 2, (1, 1, 1, 1))


def test_weight():
    _equal_and_immutable(lambda: Weight(2, (1, -1)), ("l", "omega"))
    assert Weight.fundamental(2, 1) + Weight.fundamental(2, 2, -1) == Weight(l=2, omega=(1, -1))
    assert Weight.zero(2) != Weight.zero(3)
    assert repr(Weight(2, (1, -1))) == "Weight(l=2, omega=(1, -1))"
    _refused("need one coefficient per fundamental weight", Weight, 2, (1,))


def test_lweight():
    _equal_and_immutable(lambda: oscillator_lweight(RepSpec(2, 2), (1, 0)), ("weight", "roots"))
    lw = prefundamental(2, 1, -1, qp(2))
    assert lw == LWeight(weight=Weight.zero(2), roots=(frozenset({(qp(2), -1)}), frozenset()))
    assert lw != prefundamental(2, 1, 1, qp(2)) and lw != lw.twisted(qp(1))
    assert repr(lw) == ("LWeight(weight=Weight(l=2, omega=(0, 0)), "
                        "roots=(frozenset({(q^2, -1)}), frozenset()))")
    _refused("need one root multiset per node", LWeight, Weight.zero(2), (frozenset(),))


class _Pair(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class _NamedPair(_Pair):
    __slots__ = ()


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_record_without_slots_inherits_its_fields(roundtrip):
    _equal_and_immutable(lambda: _NamedPair(1, (2, 3)), ("left", "right"))
    pair = _NamedPair(1, (2, 3))
    assert pair == _NamedPair(left=1, right=(2, 3)) != _NamedPair(1, (2, 4))
    assert hash(pair) == hash((1, (2, 3)))
    # distinct by class, even over the same fields
    assert pair != _Pair(1, (2, 3)) and _Pair(1, (2, 3)) != pair
    assert repr(pair) == "_NamedPair(left=1, right=(2, 3))"
    again = roundtrip(pair)
    assert type(again) is _NamedPair and again == pair and hash(again) == hash(pair)


RECORDS = [RepSpec(3, 2, True, qp(2)), RootIndex(2, (1, 1, 1)),
           CartanExponent(2, (1, 0, -1)), Weight(2, (1, -1)),
           oscillator_lweight(RepSpec(2, 2), (1, 0))]


_SPEC = RepSpec(2, 2, False, qp(2))
# a series, a closed form, a nonzero Fock vector and a mirrored image word
VALUES = [phi_series(1, _SPEC, (1, 0), 4), closed_psi(1, _SPEC, (1, 0)),
          get_evaluator(_SPEC).apply_basis(Gen(1), (1, 1)), image_e(1, RepSpec(3, 2, True))]


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("record", RECORDS + VALUES, ids=lambda r: type(r).__name__)
def test_copies_are_equal_records(record, roundtrip):
    again = roundtrip(record)
    assert type(again) is type(record) and again == record
    # a FockState's terms are a dict, so it has no hash
    if not isinstance(record, FockState):
        assert hash(again) == hash(record)


NODES = [Gen(2), CartanPower(CartanExponent.h(3, 1)), Sum((Gen(1), Gen(2))),
         Scale(qp(3), Gen(1)), Compose(Gen(0), CartanPower(CartanExponent.h(2, 2)))]


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_operator_nodes_copy_to_themselves(node, roundtrip):
    # interned: every copy, deep copy and unpickled node is the one node
    assert roundtrip(node) is node


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_refuse_assignment_and_deletion(value):
    before = repr(value)
    for name in type(value).__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
    assert repr(value) == before


def test_fock_states_and_words_are_compared_by_value():
    ev = get_evaluator(_SPEC)
    assert not VALUES[2].is_zero()
    assert ev.apply_basis(Gen(1), (1, 1)) == FockState(2, dict(VALUES[2].items()))
    assert ev.apply_basis(Gen(1), (1, 1)) != ev.apply_basis(Gen(2), (1, 1))
    assert FockState.zero(2) != FockState.zero(3)
    with pytest.raises(TypeError):
        hash(VALUES[2])
    word = image_e(1, RepSpec(3, 2, True))
    assert word == OscWord(word.l, word.coeff, list(word.atoms)) and hash(word) == hash(VALUES[3])
    assert word != image_e(1, RepSpec(3, 2))


def test_interned_values_refuse_deletion():
    q7, e2 = qp(7), Gen(2)
    for node, fields in ((q7, ("_e", "_n", "_d")), (e2, ("i",))):
        for name in fields + ("extra",):
            with pytest.raises(AttributeError, match=f"^{type(node).__name__} is immutable$"):
                delattr(node, name)
            with pytest.raises(AttributeError, match=f"^{type(node).__name__} is immutable$"):
                setattr(node, name, None)
    # the one q^7 and the one e_2 are untouched and still in use
    assert qp(7) is q7 and q7.as_q_power() == 7 and q7 * qp(-7) is ONE
    assert Gen(2) is e2 and e2.i == 2 and repr(e2) == "e[2]"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which no command
    # needs and every run of the CLI would import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qloop.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(pathlib.Path(qloop.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["[]"]


def test_importing_the_package_binds_its_submodules():
    # the package names no objects; every name is imported from its submodule
    code = ("import sys, types; sys.path.insert(0, sys.argv[1]); import qloop; "
            "print(qloop.__version__, *sorted(n for n, v in vars(qloop).items() "
            "if isinstance(v, types.ModuleType)))")
    src = str(pathlib.Path(qloop.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    version, *names = proc.stdout.split()
    assert version == "0.1.0"
    assert {"borelrep", "exactfield", "fock", "lweights", "rootsys", "rootvectors"} <= set(names)


_THREE_ROOTS = ("LWeight(weight=Weight(l=2, omega=(2, -4)), roots=(frozenset({(1/q^2, 1)}), "
                "frozenset({(q, 1), (1/q^3, -1), (1/q, -1)})))")


@pytest.mark.parametrize("prelude", ["pass", "QRational.q_power(-1); QRational.q_power(1)",
                                     "QRational.q_power(-3); QRational.q_power(-1)"],
                         ids=["cold", "q-first", "q^-3-first"])
def test_lweight_repr_is_the_same_in_every_interpreter(prelude):
    # a QRational hashes by address, so a frozenset of roots iterates in an
    # order that depends on what was allocated first; repr sorts each node
    assert repr(oscillator_lweight(RepSpec(2, 2), (1, 0))) == _THREE_ROOTS
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from qloop.exactfield import QRational; " + prelude + "; "
            "from qloop.borelrep import RepSpec; from qloop.lweights import oscillator_lweight; "
            "print(repr(oscillator_lweight(RepSpec(2, 2), (1, 0))))")
    src = str(pathlib.Path(qloop.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == _THREE_ROOTS
