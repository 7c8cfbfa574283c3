import copy
import pickle

import numpy as np
import pytest

from mirror_teleport import (
    ConfigError,
    Couplings,
    DomainError,
    GaussianCoeffs,
    PhysicalParams,
    PropagatorMatrix,
    replace,
)

_PARAMS = dict(
    power=10.0, laser_freq=2e15, mirror_freq=5e8, det_bandwidth=1e7, mode_bandwidth=1e3, mass=1e-10
)


def test_repr_is_the_standard_field_listing():
    # Error messages embed these strings, so they keep the standard format.
    assert repr(Couplings.from_rates(2.0, 3.0)) == (
        "Couplings(parametric=2.0, beam_splitter=3.0, oscillation=2.23606797749979)"
    )
    assert repr(PhysicalParams(**_PARAMS, temperature=0.25)) == (
        "PhysicalParams(power=10.0, laser_freq=2000000000000000.0, mirror_freq=500000000.0, "
        "det_bandwidth=10000000.0, mode_bandwidth=1000.0, mass=1e-10, incidence_angle=0.0, "
        "temperature=0.25, damping=0.0)"
    )


def test_fields_cannot_be_set_or_deleted():
    c = Couplings.from_rates(2.0, 3.0)
    for name in ("parametric", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(c, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c == Couplings.from_rates(2.0, 3.0)


def test_equality_and_hash_follow_the_fields():
    a, b = Couplings.from_rates(2.0, 3.0), Couplings.from_rates(2.0, 3.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Couplings.from_rates(2.0, 3.5)
    assert a != (a.parametric, a.beam_splitter, a.oscillation)
    assert PhysicalParams(**_PARAMS) != PhysicalParams(**_PARAMS, damping=1.0)


def test_constructor_takes_positions_keywords_and_defaults():
    by_position = PhysicalParams(*_PARAMS.values())
    rest = {name: _PARAMS[name] for name in list(_PARAMS)[2:]}
    mixed = PhysicalParams(10.0, 2e15, **rest, incidence_angle=0.0)
    assert by_position == mixed == PhysicalParams(**_PARAMS)
    assert by_position.temperature == 0.0
    assert PropagatorMatrix(np.eye(3)).time == 0.0
    g = GaussianCoeffs(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, time=0.5, nbar=1.0)
    assert (g.anti_n, g.time, g.couplings) == (5.0, 0.5, None)
    for args, kwargs in [
        ((), {k: v for k, v in _PARAMS.items() if k != "mass"}),  # lacks a field
        ((10.0,), _PARAMS),  # power twice
        ((), {**_PARAMS, "colour": 1.0}),  # no such field
        (tuple(range(1, 11)), {}),  # one value too many
    ]:
        with pytest.raises(TypeError):
            PhysicalParams(*args, **kwargs)


def test_replace_runs_the_checks_again(bench_config):
    changed = replace(bench_config, grid_points=50)
    assert changed.grid_points == 50 and bench_config.grid_points == 2000
    assert replace(changed, grid_points=2000) == bench_config
    with pytest.raises(ConfigError, match="grid_points"):
        replace(bench_config, grid_points=1)
    with pytest.raises(DomainError, match="mass"):
        replace(bench_config.params, mass=-1.0)
    with pytest.raises(TypeError):
        replace(bench_config.params, colour=1.0)


def test_copies_and_pickles_round_trip():
    c = Couplings.from_rates(2.0, 3.0)
    for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert clone == c and clone is not c
