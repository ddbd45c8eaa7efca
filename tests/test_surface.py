"""The package's public names: nothing exported that no module declares,
and every record an immutable tuple with the field API of a named
tuple."""

import copy
import importlib
import pickle
import types

import pytest

import delayw
import delayw.errors
from delayw import AssignmentMode, ClosedLoopParams, ConstantHistory, Gains, SearchRect

MODULES = ("lambertw", "spectrum", "assign", "oracle", "sim")

# every public record: the fields a caller must give, in declaration
# order, then the documented defaults of the rest
RECORDS = [
    (delayw.WValue, dict(w=1j, residual=0.0, iterations=0), {}),
    (delayw.SystemParams, dict(a=1.0, a1d=-1.0, b=1.0, h=1.0), dict(input_delay=False)),
    (delayw.Gains, dict(k=1.0), dict(k1d=0.0)),
    (delayw.ClosedLoopParams, dict(alpha=-1.0, beta=-2.0, h=1.0), {}),
    (delayw.SpectrumRoot, dict(branch=0, s=-1j), dict(multiplicity=1)),
    (delayw.Spectrum, {}, dict(roots=(), rightmost=0j)),
    (delayw.Target, dict(S=1j, u=0.0, v=1.0), {}),
    (delayw.AssignmentResult, dict(mode=AssignmentMode.BOTH_GAINS, gains=Gains(1.0),
                                   closed_loop=ClosedLoopParams(-1.0, -2.0, 1.0), predicted_rightmost=1j,
                                   feasible=True, certificate="ok"), {}),
    (delayw.ModeCheck, dict(mode=AssignmentMode.REAL_BOTH, applicable=True, feasible=True, detail="ok"),
     dict(residual=None, alpha_interval=None)),
    (delayw.FeasibilityReport, dict(target=1j, checks=()), {}),
    (delayw.SearchRect, dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0), {}),
    (delayw.LocatedRoot, dict(s=-1 + 0j, multiplicity=1), {}),
    (delayw.RootSet, dict(roots=(), total_count=0), {}),
    (delayw.CrossValidation, dict(rect=SearchRect(-1.0, 1.0, -1.0, 1.0), spectrum_count=0, oracle_count=0,
                                  max_distance=0.0), {}),
    (delayw.ConstantHistory, dict(c=1.0), {}),
    (delayw.LinearHistory, dict(c0=1.0, c1=0.5), {}),
    (delayw.SampledHistory, dict(points=((-1.0, 0.0), (-0.5, 1.0))), {}),
    (delayw.InitialData, dict(x0=1.0, phi=ConstantHistory(1.0)), {}),
    (delayw.Trajectory, dict(times=(0.0, 0.5), values=(1.0, 0.5), step=0.5), dict(truncated=False)),
    (delayw.EigEstimate, dict(value=-1 + 0j, kind="monotone", fit_residual=0.0, n_crossings=0), {}),
]


def test_public_surface():
    # delayw exports exactly the error classes, each module's __all__ and
    # __version__
    declared = set()
    for name in MODULES:
        mod = importlib.import_module(f"delayw.{name}")
        assert all(hasattr(mod, n) for n in mod.__all__), name
        declared.update(mod.__all__)
    errors = {n for n, o in vars(delayw.errors).items() if isinstance(o, type) and issubclass(o, Exception)}
    public = {n for n, o in vars(delayw).items()
              if not n.startswith("_") and not isinstance(o, types.ModuleType)}
    assert public == errors | declared
    assert isinstance(delayw.__version__, str)
    records = {n for n, o in vars(delayw).items() if isinstance(o, type) and issubclass(o, tuple)}
    assert records == {cls.__name__ for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, given, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_fields_and_immutability(cls, given, defaults):
    rec = cls(**given)
    assert rec._fields == (*given, *defaults)
    assert tuple(rec) == (*given.values(), *defaults.values())
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    # a subclass that lacks __slots__ = () would take new attributes
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("cls, given, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_field_api(cls, given, defaults):
    # namedtuple's field API, one record at a time
    rec = cls(**given)
    values = {**given, **defaults}
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in values.items())})"
    assert cls._field_defaults == defaults
    assert cls.__match_args__ == rec._fields
    assert all(getattr(rec, n) is rec[i] for i, n in enumerate(rec._fields))
    assert type(rec._asdict()) is dict and rec._asdict() == values
    made = cls._make(iter(values.values()))
    assert type(made) is cls and made == rec
    with pytest.raises(TypeError, match=f"Expected {len(values)} arguments, got {len(values) + 1}"):
        cls._make((*values.values(), None))
    # "new" fits no field: _replace, as namedtuple's, skips __new__'s checks
    last = rec._fields[-1]
    replaced = rec._replace(**{last: "new"})
    assert type(replaced) is cls and replaced == (*tuple(rec)[:-1], "new")
    with pytest.raises(ValueError, match=r"Got unexpected field names: \['nope'\]"):
        rec._replace(nope=1)
    assert rec == tuple(rec) and tuple(rec) == rec and hash(rec) == hash(tuple(rec))


@pytest.mark.parametrize("cls, given, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_pickles_and_copies(cls, given, defaults):
    rec = cls(**given)
    copies = [pickle.loads(pickle.dumps(rec, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(rec), copy.deepcopy(rec)]
    for back in copies:
        assert type(back) is cls and back == rec

