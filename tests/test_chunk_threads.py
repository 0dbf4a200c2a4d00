"""The one fork of ``build_saddle``: S on a helper thread, the rest on the caller's.

Every chunk loop runs in order on the thread that calls it; the only
thread the package starts is ``build_saddle``'s helper.  These tests
force the fork on a small mesh by shrinking the element chunks.
"""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import pdwg.assembly
from pdwg.assembly import CoefficientField, build_saddle
from pdwg.mesh import Mesh
from pdwg.polyquad import TriangleBasis, get_tri_basis
from pdwg.problems import builtin
from pdwg.wgspace import SpaceConfig

from conftest import assert_bitwise_equal, assert_csr_bitwise_equal, mesh_hierarchy

#: Unit-square level 4 has 512 elements: 32 chunks of 16 elements, the
#: fewest on which ``build_saddle`` forks, and 31 chunks of 17.
FORK_CHUNK = 16

CONFIGS = {
    "C0": SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True),
    "general": SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False),
}


@pytest.fixture(scope="module")
def fork_mesh():
    mesh = mesh_hierarchy("unit_square", 4)[-1]
    assert mesh.n_triangles == 32 * FORK_CHUNK == pdwg.assembly._FORK_CHUNKS * FORK_CHUNK
    return mesh


def fresh_copy(mesh, region_tags=None):
    """The same triangulation with an empty per-mesh cache."""
    tags = mesh.region_tags if region_tags is None else region_tags
    return Mesh(vertices=mesh.vertices, triangles=mesh.triangles, region_tags=tags)


@pytest.fixture()
def fork(monkeypatch, set_chunk):
    """Chunks of ``FORK_CHUNK`` elements on ``n`` usable CPUs.

    Returns the list of threads started, all of which ``build_saddle`` starts.
    """
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pdwg.assembly.threading, "Thread", Counted)
    set_chunk(FORK_CHUNK)

    def use(cpus):
        monkeypatch.setattr(pdwg.assembly, "_CPUS", cpus)
        started.clear()
        return started

    return use


@pytest.mark.parametrize("cpus", [2, 3])
def test_threads_give_the_inline_bits(fork_mesh, fork, cpus):
    # The fork starts one helper for the bases and one for S, whatever
    # the CPU count, and gives every value the bits of the serial build.
    problem = builtin("p3")  # a tensor that jumps across region tags
    for config in CONFIGS.values():
        started = fork(1)
        want = build_saddle(fresh_copy(fork_mesh), config, problem)
        assert started == []
        started = fork(cpus)
        got = build_saddle(fresh_copy(fork_mesh), config, problem)
        assert len(started) == 2
        assert not any(t.is_alive() for t in started)
        assert_csr_bitwise_equal(got.S, want.S)
        assert_csr_bitwise_equal(got.B, want.B)
        assert_bitwise_equal(got.F, want.F)
        assert_bitwise_equal(got.constrained_values, want.constrained_values)


def test_thread_count_follows_the_chunk_count(fork_mesh, fork, set_chunk):
    # 32 chunks on two CPUs fork twice; 31 chunks, or one CPU, start no thread.
    problem = builtin("p1")
    for cpus, chunk, threads in ((2, FORK_CHUNK, 2), (2, FORK_CHUNK + 1, 0), (1, FORK_CHUNK, 0)):
        started = fork(cpus)
        set_chunk(chunk)
        build_saddle(fresh_copy(fork_mesh), CONFIGS["C0"], problem)
        assert len(started) == threads


def test_data_runs_on_the_calling_thread(fork_mesh, fork):
    # The tensor entries, f and g run on the calling thread only, while S
    # is built on the helper.
    problem = builtin("p3")
    callers = set()

    def recorded(fn):
        def call(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    coeff = problem.coeff
    problem = dataclasses.replace(
        problem,
        coeff=CoefficientField(a11=recorded(coeff.a11), a12=recorded(coeff.a12),
                               a22=recorded(coeff.a22)),
        f=recorded(problem.f),
        g=recorded(problem.g),
    )
    for config in CONFIGS.values():
        started = fork(2)
        callers.clear()
        build_saddle(fresh_copy(fork_mesh), config, problem)
        assert len(started) == 2
        assert callers == {threading.get_ident()}


def test_threads_raise_the_serial_error(fork_mesh, fork, monkeypatch):
    # A serial build assembles S first, so when both halves fail the
    # stabilizer's error wins.  The stabilizer fails late, after the
    # constraint has failed on the caller, so the join is what waits for it.
    nt = fork_mesh.n_triangles
    mesh = fresh_copy(fork_mesh, region_tags=np.arange(nt))
    bad_s, bad_b = 20 * FORK_CHUNK, 5 * FORK_CHUNK
    local_parts = pdwg.assembly.stabilizer_local_parts

    def stabilizer_fails(mesh, dofmap, elements=slice(None)):
        if elements.start == bad_s:
            time.sleep(0.2)
            raise ValueError(f"stabilizer fails on the chunk from element {elements.start}")
        return local_parts(mesh, dofmap, elements)

    def a11(x, y, region=None):
        if region[0, 0] == bad_b:
            raise ValueError(f"coefficient fails on the chunk from element {bad_b}")
        return 2.0

    one = lambda x, y, region=None: 1.0  # noqa: E731
    zero = lambda x, y, region=None: 0.0  # noqa: E731
    problem = dataclasses.replace(builtin("p1"), coeff=CoefficientField(a11, zero, one))
    good = dataclasses.replace(problem, coeff=CoefficientField(one, zero, one))
    s_error = f"stabilizer fails on the chunk from element {bad_s}"
    b_error = f"coefficient fails on the chunk from element {bad_b}"
    for fails_s, case, want in ((True, problem, s_error), (False, problem, b_error),
                                (True, good, s_error)):
        if fails_s:
            monkeypatch.setattr(pdwg.assembly, "stabilizer_local_parts", stabilizer_fails)
        else:
            monkeypatch.setattr(pdwg.assembly, "stabilizer_local_parts", local_parts)
        for cpus in (1, 2):
            started = fork(cpus)
            with pytest.raises(ValueError) as err:
                build_saddle(mesh, CONFIGS["C0"], case)
            assert str(err.value) == want
            assert len(started) == (2 if cpus > 1 else 0)
            assert not any(t.is_alive() for t in started)


def test_failed_helper_start_joins_the_started_helpers(fork_mesh, fork, monkeypatch):
    # The helper for S cannot start, as when the process is out of
    # threads: that error propagates, and the helper that built the
    # degree-k basis has been joined.
    started = fork(2)
    counted = pdwg.assembly.threading.Thread

    class Refused(counted):
        def start(self):
            if len(started) == 1:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(pdwg.assembly.threading, "Thread", Refused)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        build_saddle(fresh_copy(fork_mesh), CONFIGS["C0"], builtin("p1"))
    assert len(started) == 1
    assert not started[0].is_alive()


def test_first_cached_call_from_several_threads_returns_one_object():
    # The fork's two halves fill one mesh's cache at once.  More threads
    # than cores and a 1 us switch interval: a second stored value shows.
    mesh = mesh_hierarchy("unit_square", 3)[-1]  # fresh cache
    barrier = threading.Barrier(4)
    got = [None] * 4

    def call(i):
        barrier.wait()
        got[i] = get_tri_basis(mesh, 2)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert isinstance(got[0], TriangleBasis)
    assert all(basis is got[0] for basis in got)
    assert get_tri_basis(mesh, 2) is got[0]
