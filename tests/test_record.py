import numpy as np
import pytest

from poromix import (
    Domain,
    DomainSpec,
    EnergyLedger,
    KortewegParams,
    MobilitySpec,
    ScalarField,
    SimulationResult,
    SimulationState,
    VelocityField,
)


def _case(name, dom):
    """(class, positional arguments, expected repr or None, defaults) of one value class."""
    return {
        "DomainSpec": (DomainSpec, (2.0, 1.0, 4, 2, 30),
                       "DomainSpec(Lx=2.0, Ly=1.0, Ns=4, Nv=2, M=30)", {"M": None}),
        "KortewegParams": (KortewegParams, (0.5, 0.25),
                           "KortewegParams(delta_hat=0.5, gamma=0.25)",
                           {"delta_hat": 0.0, "gamma": 0.0}),
        "MobilitySpec": (MobilitySpec, ("polynomial", (1, 2)),
                         "MobilitySpec(kind='polynomial', coefficients=(1.0, 2.0))",
                         {"coefficients": (1.0,)}),
        "Domain": (Domain, (dom.spec, dom.scalar, dom.velocity, dom.grid, dom.midpoint), None, {}),
        "ScalarField": (ScalarField, (dom, np.zeros((dom.spec.Ns, dom.spec.Ns))), None, {}),
    }[name]


@pytest.mark.parametrize("name", ["DomainSpec", "KortewegParams", "MobilitySpec", "Domain",
                                  "ScalarField"])
def test_value_classes_are_frozen_records(name, pi_domain):
    # Each value class behaves as the frozen dataclass it replaced: a repr
    # of its fields, equality and hash by fields (by identity for Domain and
    # ScalarField), no assignment or deletion, the call signature of its
    # fields in order and their defaults.
    cls, args, text, defaults = _case(name, pi_domain)
    a, b = cls(*args), cls(*args)
    fields = list(vars(a))
    assert len(fields) == len(args)
    if text is None:
        assert a != b and a == a and hash(a) == object.__hash__(a)
        assert repr(a).startswith(f"{name}({fields[0]}={getattr(a, fields[0])!r}, ")
    else:
        assert a == b and hash(a) == hash(b) and repr(a) == text
        assert a != cls(*args[:-1], args[-1] * 2) and a != args
    keyword = cls(**dict(zip(fields, args)))
    assert all(getattr(keyword, f) is getattr(a, f) for f in fields if f != "coefficients")
    for f in fields + ["other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(a, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(a, f)
    required = [f for f in fields if f not in defaults]
    given = cls(*args[:len(required)])
    assert {f: getattr(given, f) for f in defaults} == defaults
    if required:
        with pytest.raises(TypeError, match=f"missing required argument: '{required[-1]}'"):
            cls(*args[:len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} positional arguments"):
        cls(*args, None)


def test_each_result_gets_its_own_checkpoints(pi_domain):
    state = SimulationState(0.0, ScalarField(pi_domain, np.zeros((6, 6))),
                            VelocityField(pi_domain, np.zeros((2, 2))))
    a, b = (SimulationResult("completed", state, EnergyLedger()) for _ in range(2))
    assert a.checkpoints == {} and a.checkpoints is not b.checkpoints
    a.checkpoints[0.0] = state
    assert b.checkpoints == {}
