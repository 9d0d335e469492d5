import os
from collections import defaultdict

import numpy as np
import pytest

from circulantwl.circulant import from_connection_partition
from circulantwl.dimension import enumerate_schemes
from circulantwl.wl import wl_closure

ROOK = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
SHRIKHANDE = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]


def _srg_arcs(gens):
    """0/1 arcs of a Cayley graph on Z_4 x Z_4, point (i, j) labelled 4i + j."""
    arcs = np.zeros((16, 16), dtype=np.int64)
    for p in range(16):
        i, j = divmod(p, 4)
        for gi, gj in gens:
            arcs[p, (i + gi) % 4 * 4 + (j + gj) % 4] = 1
    return arcs


@pytest.fixture(scope="session", autouse=True)
def scheme_cache_dir(tmp_path_factory):
    """Memoize scheme enumeration across the whole run via the cache env var."""
    path = tmp_path_factory.mktemp("scheme-cache")
    old = os.environ.get("CIRCULANTWL_CACHE")
    os.environ["CIRCULANTWL_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("CIRCULANTWL_CACHE", None)
    else:
        os.environ["CIRCULANTWL_CACHE"] = old


@pytest.fixture(scope="session")
def schemes_up_to_13():
    return {n: enumerate_schemes(n).schemes for n in range(1, 14)}


@pytest.fixture(scope="session")
def schemes_up_to_16(schemes_up_to_13):
    out = dict(schemes_up_to_13)
    for n in (14, 15, 16):
        out[n] = enumerate_schemes(n).schemes
    return out


@pytest.fixture(scope="session")
def rook_and_shrikhande_arcs():
    """Arcs of the 4x4 rook's graph and the Shrikhande graph."""
    return _srg_arcs(ROOK), _srg_arcs(SHRIKHANDE)


@pytest.fixture(scope="session")
def rook_and_shrikhande(rook_and_shrikhande_arcs):
    """Closures of the 4x4 rook's graph and the Shrikhande graph, both
    SRG(16, 6, 2, 2): 2-dim WL cannot tell them apart, 3-dim WL can."""
    return tuple(wl_closure(arcs) for arcs in rook_and_shrikhande_arcs)


@pytest.fixture
def z20_fixture():
    """The rank-10 scheme over Z_20 whose basic sets are the classes of
    d by (4 divides d, d mod 5); it is not quasinormal."""
    cls = defaultdict(set)
    for d in range(20):
        cls[(d % 4 == 0, d % 5)].add(d)
    scheme, coherent = from_connection_partition(20, cls.values())
    assert coherent
    return scheme
