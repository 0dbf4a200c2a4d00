"""Element-chunk loops on several threads: the same bits as the inline loop."""

import sys
import threading
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import pdwg.polyquad
from pdwg.analysis import discrete_norms, error_norms
from pdwg.assembly import (
    CoefficientField,
    assemble_constraint,
    assemble_stabilizer,
    build_saddle,
    stabilizer_energy,
)
from pdwg.mesh import Mesh
from pdwg.polyquad import (
    DATA_DEGREE_DEFAULT,
    TriangleBasis,
    _for_chunks,
    get_tri_basis,
    project_element,
    space_dim,
    triangle_quadrature,
)
from pdwg.problems import builtin
from pdwg.solver import solve
from pdwg.wgspace import SpaceConfig, build_dof_map, nodal_to_modal

from conftest import assert_bitwise_equal, assert_csr_bitwise_equal, mesh_hierarchy

#: Chunk size for these tests: 7 chunks on ``chunked_mesh`` (the last one
#: partial), at least two per thread for up to 3 threads.
POOL_CHUNK = 300

#: The fewest chunks per thread outside the ``pool`` fixture.
CHUNKS_PER_THREAD = pdwg.polyquad._CHUNKS_PER_THREAD

CONFIGS = {
    "C0": SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True),
    "general": SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False),
}


def fresh_copy(mesh, region_tags=None):
    """The same triangulation with an empty per-mesh cache."""
    tags = mesh.region_tags if region_tags is None else region_tags
    return Mesh(vertices=mesh.vertices, triangles=mesh.triangles, region_tags=tags)


@pytest.fixture()
def pool(monkeypatch, set_chunk, set_workers):
    """Run chunk loops of two or more chunks per thread on ``n`` threads.

    Returns the list of helper threads started.
    """
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pdwg.polyquad.threading, "Thread", Counted)
    monkeypatch.setattr(pdwg.polyquad, "_CHUNKS_PER_THREAD", 2)
    set_chunk(POOL_CHUNK)

    def use(n):
        set_workers(n)
        started.clear()
        return started

    return use


@pytest.fixture(scope="module")
def solutions(chunked_mesh):
    """p1 solved on ``chunked_mesh`` in both variants."""
    problem = builtin("p1")
    return {name: solve(build_saddle(chunked_mesh, config, problem))
            for name, config in CONFIGS.items()}


def routed_results(mesh, solutions):
    """Every output of a loop that goes through ``_for_chunks``, as float arrays."""
    problem = builtin("p1")
    out = {
        "coeff": TriangleBasis(mesh, 3).coeff,
        "nodal_to_modal": nodal_to_modal.__wrapped__(mesh, 2),  # not the cached map
        "project_element": project_element(lambda x, y: np.exp(x) * np.sin(3.0 * y), 2, mesh),
    }
    for name, sol in solutions.items():
        config = sol.system.dofmap.config
        dm = build_dof_map(mesh, config)
        S = assemble_stabilizer(mesh, dm)
        B, F = assemble_constraint(mesh, dm, problem.coeff, problem.f, problem.quad_degree)
        out[f"{name} S"] = S
        out[f"{name} B"] = B
        out[f"{name} F"] = F
        out[f"{name} stabilizer_energy"] = np.array(stabilizer_energy(mesh, dm, sol.primal))
        out[f"{name} error_norms"] = np.array(astuple(error_norms(sol, problem)))
        norms = discrete_norms(sol.primal, mesh, config, problem)
        out[f"{name} discrete_norms"] = np.array(astuple(norms))
    return out


@pytest.mark.parametrize("workers", [2, 3])
def test_threads_give_the_inline_bits(chunked_mesh, solutions, pool, workers):
    started = pool(1)
    want = routed_results(chunked_mesh, solutions)
    assert started == []
    started = pool(workers)
    got = routed_results(chunked_mesh, solutions)
    # Every routed loop dispatched: 3 + 2 * 6 loops, workers - 1 helpers each.
    assert len(started) == (workers - 1) * 15
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key.endswith((" S", " B")):
            assert_csr_bitwise_equal(got[key], value)
        else:
            assert_bitwise_equal(got[key], value)


def test_thread_count_follows_the_chunk_count(chunked_mesh, pool, monkeypatch, set_chunk):
    # 7 chunks at two per thread: 3 of 4 threads, 2 of 2, inline on 1.
    for workers, helpers in ((4, 2), (2, 1), (1, 0)):
        started = pool(workers)
        TriangleBasis(chunked_mesh, 2)
        assert len(started) == helpers
    # 16 chunks per thread: 32 chunks take 2 of 4 threads, 31 run inline.
    monkeypatch.setattr(pdwg.polyquad, "_CHUNKS_PER_THREAD", CHUNKS_PER_THREAD)
    assert CHUNKS_PER_THREAD == 16
    for size, helpers in ((64, 1), (67, 0)):
        started = pool(4)
        set_chunk(size)
        TriangleBasis(chunked_mesh, 2)
        assert len(started) == helpers


def test_threads_raise_the_serial_error(chunked_mesh, pool):
    # Region tags are element ids, so the coefficient's error names the
    # first element of its call.  It fails in chunks 2 and 5; chunk 2
    # fails last, so the threads see chunk 5 fail first.
    nt = chunked_mesh.n_triangles
    mesh = fresh_copy(chunked_mesh, region_tags=np.arange(nt))
    bad = {2 * POOL_CHUNK + 100, 5 * POOL_CHUNK + 100}

    def a11(x, y, region=None):
        ids = region[:, 0]
        hit = bad.intersection(ids.tolist())
        if hit:
            if min(hit) < 3 * POOL_CHUNK:
                time.sleep(0.2)
            raise ValueError(f"coefficient fails on the chunk from element {ids[0]}")
        return np.full(np.broadcast(x, y).shape, 2.0)

    one = lambda x, y, region=None: np.ones(np.broadcast(x, y).shape)
    coeff = CoefficientField(a11=a11, a12=lambda x, y, region=None: 0.0 * x, a22=one)
    dm = build_dof_map(mesh, CONFIGS["C0"])
    messages = []
    for workers in (1, 2, 3):
        started = pool(workers)
        with pytest.raises(ValueError) as err:
            assemble_constraint(mesh, dm, coeff, one, DATA_DEGREE_DEFAULT)
        assert len(started) == workers - 1
        messages.append(str(err.value))
    assert messages == [f"coefficient fails on the chunk from element {2 * POOL_CHUNK}"] * 3


@pytest.mark.parametrize("workers", [2, 3])
def test_first_chunk_runs_alone_on_the_caller(pool, workers):
    # Chunk 0 caches the per-mesh inputs every chunk reads, so it runs to
    # completion on the calling thread before any helper thread starts,
    # and an error in it is raised before any starts.
    started = pool(workers)
    caller = threading.current_thread()
    lock = threading.Lock()
    events = []

    def chunk(e):
        with lock:
            events.append(("start", e.start, threading.current_thread(), len(started)))
        time.sleep(0.01)
        with lock:
            events.append(("end", e.start, threading.current_thread(), len(started)))

    _for_chunks(7 * POOL_CHUNK, chunk)
    assert events[:2] == [("start", 0, caller, 0), ("end", 0, caller, 0)]
    assert sorted(ev[1] for ev in events if ev[0] == "end") == [
        i * POOL_CHUNK for i in range(7)
    ]
    assert len(started) == workers - 1

    def fail(e):
        raise ValueError(f"chunk from element {e.start}")

    started = pool(workers)
    with pytest.raises(ValueError, match="chunk from element 0$"):
        _for_chunks(7 * POOL_CHUNK, fail)
    assert started == []


def test_bases_first_built_inside_a_chunk(chunked_mesh, solutions, pool):
    # Every chunk of an outer loop computes the stabilizer energy on a
    # fresh mesh.  Chunk 0 runs alone on the caller and first builds the
    # degree-k basis and the nodal map there, so their loops and the
    # energy's own loop each dispatch one helper before the outer loop
    # starts its own; the later chunks find them cached and run their
    # loops inline.  Each chunk's energy has the bits of the inline
    # computation.
    sol = solutions["C0"]
    config = CONFIGS["C0"]
    pool(1)
    inline = fresh_copy(chunked_mesh)
    want = stabilizer_energy(inline, build_dof_map(inline, config), sol.primal)
    started = pool(2)
    mesh = fresh_copy(chunked_mesh)
    nchunks = -(-mesh.n_triangles // POOL_CHUNK)
    energies = np.full(nchunks, np.nan)

    def chunk(e):
        energies[e.start // POOL_CHUNK] = stabilizer_energy(
            mesh, build_dof_map(mesh, config), sol.primal
        )

    _for_chunks(mesh.n_triangles, chunk)
    assert len(started) == 4
    assert_bitwise_equal(energies, np.full(nchunks, want))


def test_helper_threads_read_only_cached_inputs(chunked_mesh, pool, monkeypatch):
    # Each dispatching loop runs chunk 0 alone first, which caches the
    # per-mesh inputs every chunk reads.  With each dispatching function
    # the first to use a fresh mesh, every per-mesh value a helper thread
    # looks up was in the cache when its loop started its threads,
    # whatever the timing.
    class Recording(dict):
        at_dispatch = frozenset()

        def __contains__(self, key):
            if threading.current_thread() is not caller and key not in self.at_dispatch:
                missed.append(key)
            return super().__contains__(key)

    caller = threading.current_thread()
    missed = []
    meshes = []
    started = pool(2)
    counted = pdwg.polyquad.threading.Thread

    class Snapshot(counted):
        def start(self):
            for mesh in meshes:
                mesh._cache.at_dispatch = frozenset(mesh._cache)
            super().start()

    monkeypatch.setattr(pdwg.polyquad.threading, "Thread", Snapshot)

    def fresh():
        meshes.append(fresh_copy(chunked_mesh))
        meshes[-1]._cache = Recording()
        return meshes[-1]

    problem = builtin("p1")
    TriangleBasis(fresh(), 3)
    nodal_to_modal(fresh(), 2)
    project_element(lambda x, y: np.exp(x) * np.sin(3.0 * y), 3, fresh())
    for config in CONFIGS.values():
        mesh = fresh()
        dm = build_dof_map(mesh, config)
        stabilizer_energy(mesh, dm, np.zeros(dm.n_primal))
        mesh = fresh()
        assemble_stabilizer(mesh, build_dof_map(mesh, config))
        mesh = fresh()
        assemble_constraint(mesh, build_dof_map(mesh, config), problem.coeff, problem.f,
                            problem.quad_degree)
        mesh = fresh()
        dm = build_dof_map(mesh, config)
        discrete_norms(np.zeros(dm.n_primal), mesh, config, problem)
        sol = solve(build_saddle(fresh(), config, problem))
        error_norms(sol, problem)
    assert len(started) >= 15
    assert missed == []


def test_every_chunk_runs_once_under_fast_thread_switches(pool, set_chunk):
    # More threads than cores, one-element chunks and a 1 us switch
    # interval: a chunk handed out twice or skipped shows in the counts.
    started = pool(4)
    set_chunk(1)
    counts = np.zeros(500, dtype=np.int64)

    def chunk(e):
        counts[e] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _for_chunks(counts.size, chunk)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3
    assert not any(t.is_alive() for t in started)
    assert counts.tolist() == [1] * counts.size


def test_failed_helper_start_joins_the_started_helpers(pool, monkeypatch):
    # The second helper cannot start, as when the process is out of
    # threads: that error propagates once the helper that did start has
    # run its chunks and been joined, and no chunk runs twice.  Each
    # chunk sleeps, so a helper left unjoined would still be alive.
    started = pool(3)
    counted = pdwg.polyquad.threading.Thread

    class Refused(counted):
        def start(self):
            if len(started) == 1:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(pdwg.polyquad.threading, "Thread", Refused)
    counts = np.zeros(7, dtype=np.int64)

    def chunk(e):
        time.sleep(0.01)
        counts[e.start // POOL_CHUNK] += 1

    with pytest.raises(RuntimeError, match="can't start new thread"):
        _for_chunks(counts.size * POOL_CHUNK, chunk)
    assert len(started) == 1
    assert not started[0].is_alive()
    # Chunk 0 on the caller, then the started helper's stride 2, 5.
    assert counts.tolist() == [1, 0, 1, 0, 0, 1, 0]


def test_first_cached_call_from_several_threads_returns_one_object(set_workers):
    set_workers(1)
    mesh = mesh_hierarchy("unit_square", 3)[-1]  # fresh cache
    barrier = threading.Barrier(4)
    got = [None] * 4

    def call(i):
        barrier.wait()
        got[i] = get_tri_basis(mesh, 2)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert isinstance(got[0], TriangleBasis)
    assert all(basis is got[0] for basis in got)
    assert get_tri_basis(mesh, 2) is got[0]


def test_each_thread_holds_one_chunk_of_temporaries(set_chunk, set_workers):
    # Chunks of 128 elements at level 6: 64 chunks, enough for 4 threads.
    # Each further thread holds one more chunk's basis values and their
    # temporaries: peaks 5.4, 9.4 and 14.9 chunks of the basis table on
    # 1, 2 and 4 threads.
    set_chunk(128)
    mesh = mesh_hierarchy("unit_square", 6)[-1]
    f = lambda x, y: np.exp(x) * np.sin(3.0 * y)
    project_element(f, 2, mesh)  # builds the basis and mesh geometry it reads
    peaks = []
    for workers in (1, 2, 4):
        set_workers(workers)
        tracemalloc.start()
        try:
            project_element(f, 2, mesh)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    chunk_table = 128 * triangle_quadrature(12).weights.size * space_dim(2) * 8
    for workers, peak in zip((1, 2, 4), peaks):
        assert peak <= peaks[0] + (workers - 1) * 5.0 * chunk_table
