import pytest
from hypothesis import strategies as st

from mirror_teleport import Couplings, compute_couplings
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
