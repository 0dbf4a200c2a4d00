"""Shared fixtures (mesh hierarchies, a session-wide study cache) and helpers."""

import warnings

import numpy as np
import pytest

import pdwg.polyquad
from pdwg.analysis import run_study
from pdwg.mesh import DomainSpec, build_initial_mesh, refine_uniform
from pdwg.problems import builtin
from pdwg.wgspace import SpaceConfig

# When a hypothesis test fails, the hypothesis plugin imports this module to
# write a patch for the failing example.  With libcst installed, that import
# raises a DeprecationWarning (from mypy_extensions), which
# ``filterwarnings = ["error"]`` turns into an INTERNALERROR that ends the
# session instead of reporting the failure.  Importing it once here, with
# that warning ignored, leaves the plugin a module that is already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def assert_csr_bitwise_equal(got, want):
    """Assert two CSR matrices hold the same bits.

    Compares shape, nnz, the dtypes and values of ``indptr`` and
    ``indices``, and the int64 view of ``data``, so a flipped sign of
    zero or a NaN payload counts as a difference.
    """
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if name == "data":
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_bitwise_equal(got, want):
    """Assert two float arrays hold the same bits (shape, dtype, int64 view)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def owned_size(arr):
    """Entries of the array that holds the memory of ``arr``."""
    return (arr if arr.base is None else arr.base).size


def mesh_hierarchy(kind, levels):
    mesh = build_initial_mesh(DomainSpec(kind))
    out = [mesh]
    for _ in range(levels):
        mesh = refine_uniform(mesh)
        out.append(mesh)
    return out


@pytest.fixture(scope="session")
def unit_meshes():
    """Unit-square meshes, levels 0..4."""
    return mesh_hierarchy("unit_square", 4)


@pytest.fixture(scope="session")
def ref_meshes():
    """(-1,1)^2 meshes, levels 0..3."""
    return mesh_hierarchy("ref_square", 3)


@pytest.fixture(scope="session")
def lshape_meshes():
    """L-shape meshes, levels 0..3."""
    return mesh_hierarchy("l_shape", 3)


@pytest.fixture(scope="session")
def study_cache():
    """Memoized convergence studies shared across the whole session."""
    cache = {}

    def get(problem, multiplier="pkm1", c0=True, levels=6):
        key = (problem, multiplier, c0, levels)
        if key not in cache:
            config = SpaceConfig(k=2, multiplier_space=multiplier, c0_type=c0)
            cache[key] = run_study(builtin(problem), config, levels=levels)
        return cache[key]

    return get


#: Element-chunk sizes for the chunk-invariance tests: 700 leaves a partial
#: last chunk on ``chunked_mesh``; the other holds the whole mesh.
CHUNKS = (700, 1 << 20)


@pytest.fixture(scope="session")
def chunked_mesh():
    """Unit-square level-5 mesh, 2,048 elements: chunks of 700 leave a partial one."""
    mesh = mesh_hierarchy("unit_square", 5)[-1]
    assert mesh.n_triangles % 700
    return mesh


@pytest.fixture()
def set_chunk(monkeypatch):
    """Set the element-chunk size of every quadrature-resolution loop for one test."""
    return lambda size: monkeypatch.setattr(pdwg.polyquad, "_GRAM_CHUNK", size)


@pytest.fixture()
def set_workers(monkeypatch):
    """Set the number of threads that run the chunks of one loop, for one test."""
    return lambda n: monkeypatch.setattr(pdwg.polyquad, "_WORKERS", n)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
