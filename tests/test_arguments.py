"""The library's one argument rule, checked over the whole public API and the
closed forms the tests take as references.

Every public callable, and every public method or constructor that takes a
number, is fed one extreme value at a time in one numeric slot, with the other
arguments at a valid base call.  Under ``warnings.simplefilter("error")`` each
call must return a finite result or raise a ValueError whose text starts with
the slot's name; an OverflowError, a TypeError or any warning fails the test.
A public name with no entry below, probed or exempt, fails the test too.
"""

import dataclasses
import math
import re
import warnings
from enum import Enum

import numpy as np
import pytest

import zenosim
from zenosim import (DecoherenceParams, EngineKind, NoiseModel, NoiseReset, ProtocolConfig,
                     ProtocolKind, SystemHamiltonian, Table, coherence_ratio,
                     corotating_projector, ensemble_average, figure2_sweep, figure3_surface,
                     integrate, noise, nonselective_coherence, nonselective_rho,
                     nonselective_run_mc, pn_analytic, pn_approx, plus_state, rotation_y,
                     selective_run_mc, selective_step_probability, stream_generator)
from zenosim.noise import ou_decay_exponent
from zenosim.zeno import _square, pn_persistent

from oracles import closed_form_rho, closed_form_rho_rotating, pure_dephasing_coherence

HS = SystemHamiltonian(1.0, 0.05)
PARAMS = DecoherenceParams.from_times(1000.0, 20.0)
PLUS = plus_state()

# a numpy scalar's arithmetic warns where a float's overflows to inf in silence
FLOAT_PROBES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308, np.float64(1e308))
COUNT_PROBES = FLOAT_PROBES + (2.5, -1, 0, 2000.5)


def _protocol(func):
    return func, dict(params=PARAMS, t=20.0, n=4), ("t",), ("n",)


def _under_noise(run, kind):
    """``run`` at t = 40, N = 5 under the noise model built from the probed coupling and tau_c."""
    config = ProtocolConfig(40.0, 5, kind, EngineKind.MONTE_CARLO, 1000, 1)
    return (lambda coupling, tau_c: run(PARAMS, config, NoiseModel(coupling, tau_c)),
            dict(coupling=0.1, tau_c=1.0), ("coupling", "tau_c"), ())


# name -> (callable, valid base keyword arguments, float slots, count slots); a slot
# whose base value is a list is probed through its one entry
CASES = {
    "DecoherenceParams": (DecoherenceParams, dict(gamma1=1e-3, gamma2=0.05),
                          ("gamma1", "gamma2"), ()),
    "DecoherenceParams.from_times": (DecoherenceParams.from_times, dict(t1=1000.0, t2=20.0),
                                     ("t1", "t2"), ()),
    # the tests' closed-form oracles keep the rule, so a bad time cannot pass as a reference
    "closed_form_rho": (closed_form_rho, dict(params=PARAMS, hs=HS, t=20.0), ("t",), ()),
    "closed_form_rho_rotating": (closed_form_rho_rotating, dict(params=PARAMS, t=20.0),
                                 ("t",), ()),
    "integrate": (integrate, dict(rho0=PLUS.density(), params=PARAMS, t_end=1.0, dt=0.1),
                  ("t_end", "dt"), ()),
    "pure_dephasing_coherence": (pure_dephasing_coherence, dict(gamma2=0.05, t=20.0),
                                 ("gamma2", "t"), ()),
    "NoiseModel": (NoiseModel, dict(coupling=0.1, tau_c=1.0), ("coupling", "tau_c"), ()),
    "NoiseModel.quasi_static": (NoiseModel.quasi_static, dict(coupling=0.1), ("coupling",), ()),
    "NoiseModel.ornstein_uhlenbeck": (NoiseModel.ornstein_uhlenbeck,
                                      dict(coupling=0.1, tau_c=1.0), ("coupling", "tau_c"), ()),
    "ensemble_average": (ensemble_average,
                         dict(psi0=PLUS, model=NoiseModel.quasi_static(0.1), grid=[0.0, 1.0],
                              trajectories=200, base_seed=1), (), ("trajectories", "base_seed")),
    "ensemble_average under noise": (
        lambda coupling, tau_c: ensemble_average(PLUS, NoiseModel(coupling, tau_c), [0.0, 10.0],
                                                 100, 1),
        dict(coupling=0.1, tau_c=1.0), ("coupling", "tau_c"), ()),
    "stream_generator": (stream_generator, dict(base_seed=1), (), ("base_seed",)),
    "SystemHamiltonian": (SystemHamiltonian, dict(epsilon=1.0, delta=0.05),
                          ("epsilon", "delta"), ()),
    "SystemHamiltonian.evolution": (HS.evolution, dict(time=2.0), ("time",), ()),
    "corotating_projector": (corotating_projector, dict(psi=PLUS, hs=HS, time=2.0),
                             ("time",), ()),
    "rotation_y": (rotation_y, dict(angle=0.3), ("angle",), ()),
    "ProtocolConfig": (ProtocolConfig, dict(total_time=20.0, measurements=4),
                       ("total_time",), ("measurements",)),
    "ProtocolConfig for Monte Carlo": (ProtocolConfig,
                                       dict(total_time=20.0, measurements=4,
                                            engine=EngineKind.MONTE_CARLO, trajectories=2000,
                                            base_seed=1), (), ("trajectories", "base_seed")),
    "selective_run_mc": _under_noise(selective_run_mc, ProtocolKind.SELECTIVE),
    "nonselective_run_mc": _under_noise(nonselective_run_mc, ProtocolKind.NON_SELECTIVE),
    "selective_step_probability": (selective_step_probability, dict(params=PARAMS, tau=5.0),
                                   ("tau",), ()),
    "pn_analytic": _protocol(pn_analytic),
    "pn_persistent": _protocol(pn_persistent),
    "pn_approx": _protocol(pn_approx),
    "nonselective_coherence": _protocol(nonselective_coherence),
    "nonselective_rho": _protocol(nonselective_rho),
    "coherence_ratio": _protocol(coherence_ratio),
    "figure2_sweep": (figure2_sweep, dict(params=PARAMS, times=[20.0], n_max=4),
                      ("times",), ("n_max",)),
    "figure3_surface": (figure3_surface, dict(params=PARAMS, t_values=[400.0], n_values=[4]),
                        ("t_values",), ("n_values",)),
    "ou_decay_exponent": (ou_decay_exponent, dict(coupling=0.1, tau_c=1.0, t=1.0),
                          ("coupling", "tau_c", "t"), ()),
    "ou_decay_exponent on a grid": (ou_decay_exponent, dict(coupling=0.1, tau_c=1.0, t=[1.0]),
                                    ("t",), ()),
}

# a sweep's list slot is checked entry by entry, under the name of one entry
ENTRY_NAMES = {"times": "t", "t_values": "t", "n_values": "n"}

EXEMPT = {
    **dict.fromkeys(["SIGMA_X", "SIGMA_Y", "SIGMA_Z"], "a constant"),
    **dict.fromkeys(["EngineKind", "NoiseReset", "ProtocolKind"], "an enum"),
    **dict.fromkeys(["IntegrationResult", "EnsembleResult", "ProtocolResult"],
                    "a result record, built by the engines only"),
    **dict.fromkeys(["DensityMatrix", "PureState"],
                    "takes an array, checked entry by entry as a state"),
    "bloch_vector": "takes a state",
    "plus_state": "takes no argument",
    "Table": "takes columns",
    "write_csv": "takes a table and a path",
}


def _finite(value) -> bool:
    """Whether every number in a result is finite (a quasi-static tau_c is inf by definition)."""
    if value is None or isinstance(value, (str, Enum, np.random.Generator)):
        return True
    if isinstance(value, NoiseModel):
        return _finite(value.coupling) and value.tau_c > 0.0
    if isinstance(value, Table):
        return all(map(_finite, value.columns.values()))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return bool(np.all(np.isfinite(value)))


def _call(name, slot=None, value=None):
    func, base, _, _ = CASES[name]
    kwargs = dict(base)
    if slot is not None:
        kwargs[slot] = [value] if isinstance(base[slot], list) else value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return func(**kwargs)


def _probes():
    for name, (_, _, floats, counts) in CASES.items():
        for slot in floats + counts:
            for value in COUNT_PROBES if slot in counts else FLOAT_PROBES:
                yield pytest.param(name, slot, value, id=f"{name}-{slot}-{value!r}")


def test_every_public_name_is_probed_or_exempt():
    covered = {name.split(".")[0] for name in CASES} | set(EXEMPT)
    assert sorted(set(zenosim.__all__) - covered) == []
    assert sorted(set(EXEMPT) - set(zenosim.__all__)) == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_base_call_is_finite(name):
    assert _finite(_call(name))


@pytest.mark.parametrize("name,slot,value", _probes())
def test_finite_result_or_value_error_naming_the_slot(name, slot, value):
    try:
        result = _call(name, slot, value)
    except ValueError as exc:
        assert re.match(rf"{ENTRY_NAMES.get(slot, slot)}\b", str(exc)), exc
    else:
        assert _finite(result), result


@pytest.mark.parametrize("func,args,text", [
    # each used to pass: a non-integer count, an infinite interval, a state at t = inf
    (ProtocolConfig, (40.0, 2.5), "measurements must be an integer >= 1, got 2.5"),
    (pn_analytic, (PARAMS, 1.0, 2.5), "n must be an integer >= 1, got 2.5"),
    (selective_step_probability, (PARAMS, math.inf), "tau must be finite and > 0, got inf"),
    (closed_form_rho_rotating, (PARAMS, math.inf), "t must be finite and >= 0, got inf"),
    # used to name gamma1, the rate the time's inverse overflowed into
    (DecoherenceParams.from_times, (1e-320, 20.0), "t1 must be >= 5.56268e-309, got 1e-320"),
    (DecoherenceParams.from_times, (1000.0, 0.0), "t2 must be >= 5.56268e-309, got 0.0"),
    (SystemHamiltonian, (math.nan,), "epsilon must be finite, got nan"),
    (pure_dephasing_coherence, (-1.0, 1.0), "gamma2 must be >= 0, got -1.0"),
])
def test_messages(func, args, text):
    with pytest.raises(ValueError) as info:
        func(*args)
    assert str(info.value) == text


@pytest.mark.parametrize("model", [NoiseModel.quasi_static(1e308),
                                   NoiseModel.ornstein_uhlenbeck(1e308, 1.0)],
                         ids=["quasi_static", "ornstein_uhlenbeck"])
@pytest.mark.parametrize("call", [
    lambda model: selective_run_mc(DecoherenceParams.from_times(1000.0, 20.0), ProtocolConfig(
        40.0, 5, ProtocolKind.SELECTIVE, EngineKind.MONTE_CARLO, 1000, 1), model),
    lambda model: nonselective_run_mc(DecoherenceParams.from_times(1000.0, 20.0), ProtocolConfig(
        40.0, 5, ProtocolKind.NON_SELECTIVE, EngineKind.MONTE_CARLO, 1000, 1), model),
    lambda model: ensemble_average(PLUS, model, [0.0, 10.0], 100, 1),
], ids=["selective_run_mc", "nonselective_run_mc", "ensemble_average"])
def test_overflowing_phase_is_rejected_before_any_draw(call, model):
    # the phase overflowed to inf and cos(inf) is nan: P = 0.0 with survivors
    # (1, 0, 0, 0, 0), a coherence of 0.49 and a nan ensemble, or a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^coupling = 1e\+308 with t = (40|10)\.0 "):
            call(model)


def _protocol_run(run, kind, reset):
    config = ProtocolConfig(40.0, 5, kind, EngineKind.MONTE_CARLO, 1000, 1, reset)
    return lambda model: run(PARAMS, config, model)


@pytest.mark.parametrize("tau_c", [1e-310, 5e-324])
@pytest.mark.parametrize("call,step", [
    *((_protocol_run(run, kind, reset), "8.0") for run, kind in [
        (selective_run_mc, ProtocolKind.SELECTIVE),
        (nonselective_run_mc, ProtocolKind.NON_SELECTIVE)] for reset in NoiseReset),
    (lambda model: ensemble_average(PLUS, model, [0.0, 10.0], 100, 1), "10.0"),
], ids=[f"{run}-{reset.value}" for run in ("selective_run_mc", "nonselective_run_mc")
        for reset in NoiseReset] + ["ensemble_average"])
def test_overflowing_step_over_tau_c_is_rejected_before_any_draw(monkeypatch, call, step,
                                                                 tau_c):
    # step/tau_c = inf made every OU coefficient inf: P = 0.0 for a truth near 1, every
    # sign flipped or a nan ensemble, with a RuntimeWarning as the only symptom
    monkeypatch.setattr(noise, "stream_generator", None)        # a draw fails with TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^tau_c = {tau_c!r} with a step of {step} ns "):
            call(NoiseModel(0.1, tau_c))


@pytest.mark.parametrize("count", [4, np.int64(4), np.int32(4)])
def test_numpy_integers_are_counts(count):
    assert pn_analytic(PARAMS, 20.0, count) == pn_analytic(PARAMS, 20.0, 4)
    assert ProtocolConfig(20.0, count).tau == 5.0


def test_square_is_the_power_bit_for_bit():
    # x * x differs from x ** 2 in the last bit for about 1 float in 1,200, so
    # _square must keep ** below its inf cut-off
    rng = np.random.default_rng(2024)
    mantissas = rng.uniform(1.0, 2.0, 200_000)
    exponents = rng.integers(-1070, 511, 200_000)
    xs = np.ldexp(mantissas, exponents).tolist()
    assert max(xs) < 1e154
    assert all(_square(x) == x ** 2 for x in xs)
    assert [_square(x) for x in (1e154, 1e200, math.inf)] == [math.inf] * 3
