import math

import numpy as np
import pytest
from hypothesis import strategies as st

from mirror_teleport import Couplings, compute_couplings, protocol
from mirror_teleport.cli import bundled_config_path, load_config
from mirror_teleport.dynamics import COEFF_FIELDS  # noqa: F401  (re-exported)

#: The bundled config's thermal occupations.
NBAR_SET = (0.0, 1.0, 10.0, 1000.0)

#: Well-separated rates: beam_splitter/parametric in [1.01, 3], so the ratio
#: r = parametric/oscillation runs from 0.35 to 7.
rate_pairs = st.tuples(
    st.floats(0.1, 50.0), st.floats(1.01, 3.0)
).map(lambda pb: Couplings.from_rates(pb[0], pb[0] * pb[1]))


@pytest.fixture(scope="session")
def moderate():
    """Well-separated rates: every route is benign in float64."""
    return Couplings.from_rates(2.0, 3.0)


@pytest.fixture(scope="session")
def bench_config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def bench_couplings(bench_config):
    """Near-degenerate rates (ratio ~1414) from the bundled benchmark config."""
    return compute_couplings(bench_config.params)


def peak_times(c):
    """The closed-form heterodyne and heterodyne-free peak times, and the
    half-width min(5/r, pi) in x of the times the gates take around the
    first."""
    t_het, t_no_het = protocol._peak(c, True)[0], protocol._peak(c, False)[0]
    return t_het, t_no_het, min(5.0 * c.oscillation / c.parametric, math.pi)


def assert_reaches_the_peaks(c, times):
    """``times`` holds t = 0, both peak times and at least 41 times that
    span the half-width either side of the heterodyne peak."""
    t_het, t_no_het, half_width = peak_times(c)
    assert times[0] == 0.0
    assert t_het in times and t_no_het in times
    offsets = np.unique(c.oscillation * (times - t_het))
    near = offsets[np.abs(offsets) <= half_width * (1.0 + 1e-9)]
    assert len(near) >= 41
    assert near.min() == pytest.approx(-half_width)
    assert near.max() == pytest.approx(half_width)
