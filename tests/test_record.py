"""The six value records: value semantics, copies and import cost.

RepSpec, ModePattern, RootIndex, CartanExponent, Weight and LWeight share
qloop.record.Record.  The repr literals below are the text these records
printed when they were frozen dataclasses; cli prints a RepSpec on stderr
when a check is undecided, so that text must not change.
"""

import copy
import pathlib
import pickle
import subprocess
import sys

import pytest

import qloop
from qloop.borelrep import RepSpec
from qloop.exactfield import QRational
from qloop.fock import ModePattern
from qloop.lweights import LWeight, Weight, oscillator_lweight, prefundamental
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
    _equal_and_immutable(lambda: ModePattern.theta(3, 2), ("l", "kinds"))
    assert ModePattern.theta(3, 2) == ModePattern(l=3, kinds=("minus", "minus", "plus"))
    assert ModePattern.theta(3, 2) != ModePattern.theta(3, 3)
    assert repr(ModePattern.theta(3, 2)) == "ModePattern(l=3, kinds=('minus', 'minus', 'plus'))"
    _refused("pattern must assign one kind per slot", ModePattern, 0, ())
    _refused("pattern must assign one kind per slot", ModePattern, 2, ("plus",))
    _refused("slot kinds must be 'plus' or 'minus'", ModePattern, 1, ("up",))


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
    assert Weight.fundamental(2, 1) - Weight.fundamental(2, 2) == Weight(l=2, omega=(1, -1))
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


RECORDS = [RepSpec(3, 2, True, qp(2)), ModePattern.theta(3, 2), RootIndex(2, (1, 1, 1)),
           CartanExponent(2, (1, 0, -1)), Weight(2, (1, -1)),
           oscillator_lweight(RepSpec(2, 2), (1, 0))]


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_copies_are_equal_records(record, roundtrip):
    again = roundtrip(record)
    assert type(again) is type(record) and again == record and hash(again) == hash(record)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which no command
    # needs and every run of the CLI would import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qloop.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(pathlib.Path(qloop.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["[]"]


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
