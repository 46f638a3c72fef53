import pytest

import chaosrng as cr
from chaosrng.partition import SymbolPartition


@pytest.fixture(scope="session")
def cubic():
    return cr.cubic_sample_map()


@pytest.fixture(scope="session")
def tent():
    return cr.tent_map()


@pytest.fixture(scope="session")
def bernoulli():
    return cr.bernoulli_map()


@pytest.fixture(scope="session")
def logistic():
    return cr.logistic_map()


@pytest.fixture(scope="session")
def branch_part():
    """Partition split at the cubic map's maximum abscissa."""
    return SymbolPartition.from_pairs([(0.0, cr.cubic_sample_map().branches[0].hi)])


@pytest.fixture(scope="session")
def sym_part():
    return cr.symmetric_partition()
