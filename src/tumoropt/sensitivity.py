"""Linearized and bilinearized sensitivities along a state trajectory.

Both march the exact Jacobian of the implicit step from zero initial data,
y^k = A_k^-1 (B y^{k-1} + S^k) with B the step's `transport`, on stacked
(N_t+1, 3n) histories.  The linearized system, the derivative of the
control-to-state map, takes the sources of control directions, a block of
them in one march; the bilinearized system (the second derivative) takes
the second-order sources of the step residual, which mix the first-order
fields of two directions.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import functools
import itertools
import os
import queue
import threading
import weakref
from collections.abc import Iterable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import Control
from .problem import ControlProblem
from .state import StateTrajectory
from .stepper import SecondOrderCoefficients, Stepper

# Bytes of step factors one StepFactors keeps, counted as 12 bytes per stored
# entry (`nnz`) of a factor: a float64 value and an int32 index of SuperLU's
# L + U in 2-D, or a float64 band entry in 1-D, which it over-counts.  The
# 30 steps of a 33x33 rectangle take about 78 MB; all 200 steps of a 129-node
# line about 11 MB.
_CACHE_BYTES = 128 * 2**20

# Bytes of Jacobian values a march evaluates in one stacked call
# (`Stepper.jacobian_values`): 28 levels of a 129-node line.  One stack of
# all 200 levels (7.4 MB) made desk-1d slower than 32-level chunks; chunks
# of 8 to 128 levels timed alike.
_CHUNK_BYTES = 2**20

# Worker threads that form 2-D step LUs ahead of a march (SuperLU releases
# the GIL while it factors), and the factors a march has formed or queued
# ahead of its requests.  On a 33x33x30 rectangle (2-core x86-64 VM) an
# adjoint march took 0.33 s serially and 0.23-0.24 s with 2, 3, 4 or 6
# ahead on two threads.
_WORKERS = 2
_LOOK_AHEAD = 3


@dataclass(eq=False)
class LinearizedTrajectory:
    """Directional state sensitivities (eta, xi, theta), stacked per level.

    The rows of `y` before level `start` are exactly zero.
    """

    y: np.ndarray   # (N_t+1, 3n)
    start: int = 1

    eta = property(lambda self: Stepper.split(self.y)[0])
    xi = property(lambda self: Stepper.split(self.y)[1])
    theta = property(lambda self: Stepper.split(self.y)[2])


class _FactorWorker(threading.Thread):
    """A thread that forms step LUs and holds each until it is released.

    A SuperLU factor freed on a thread other than the one that formed it
    stays resident (with scipy 1.17, 100 factors of a 17x17 square, 0.5 MB
    each, left 60 MiB behind), and one freed off its thread at interpreter
    exit can make the exit fail.  So the factors this thread forms live in
    `held`, keyed by job, and are dropped here: other threads only borrow
    them (`_PooledLU`).  The inbox takes jobs, the keys of factors to
    release, and None to stop.
    """

    def __init__(self):
        super().__init__(name="tumoropt-lu", daemon=True)
        self.inbox = queue.SimpleQueue()
        self.held: dict[int, object] = {}

    def run(self) -> None:
        while (job := self.inbox.get()) is not None:
            if isinstance(job, int):
                self.held.pop(job, None)
            else:
                self._form(*job)
        self.held.clear()

    def _form(self, key: int, future: Future, factorize, values) -> None:
        if not future.set_running_or_notify_cancel():
            return
        try:
            lu = factorize(values)
        except Exception as exc:    # raised again where the result is read
            future.set_exception(exc)
            del future      # the error's traceback holds this frame
            return
        self.held[key] = lu
        future.set_result(_PooledLU(self, key, lu.nnz))


class _PooledLU:
    """A step LU held by the `_FactorWorker` that formed it.  `solve` borrows
    it for the call; `release` has the worker drop it, after which it cannot
    solve."""

    __slots__ = ("_worker", "_key", "nnz")

    def __init__(self, worker: _FactorWorker, key: int, nnz: int):
        self._worker = worker
        self._key = key
        self.nnz = nnz

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self._worker.held[self._key].solve(b, trans=trans)

    def release(self) -> None:
        self._worker.inbox.put(self._key)


class _FactorPool:
    """Worker threads that form step LUs, given jobs in turn; stopped, each
    after dropping the factors it holds, when the interpreter exits."""

    def __init__(self, n_workers: int):
        self.workers = [_FactorWorker() for _ in range(n_workers)]
        self._turn = itertools.cycle(self.workers)
        self._keys = itertools.count()
        for worker in self.workers:
            worker.start()
        atexit.register(self.close)

    def submit(self, factorize, values: np.ndarray) -> Future:
        """A future of the `_PooledLU` of factorize(values)."""
        future = Future()
        next(self._turn).inbox.put((next(self._keys), future, factorize,
                                    values))
        return future

    def close(self) -> None:
        for worker in self.workers:
            worker.inbox.put(None)
        for worker in self.workers:
            worker.join()


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.cache
def _factor_pool() -> _FactorPool | None:
    """The look-ahead pool of this process, started on first use: one
    worker per usable CPU up to `_WORKERS`, and None on a single CPU."""
    workers = min(_WORKERS, usable_cpus())
    return _FactorPool(workers) if workers > 1 else None


def _release_pooled(lus: dict) -> None:
    for fac in lus.values():
        if isinstance(fac, _PooledLU):
            fac.release()


class StepFactors:
    """LU factorizations of the linearized step operators along a trajectory.

    One instance is the linearization point (problem, state S(ubar), ubar) of
    every first- and second-order solve: the linearized and bilinearized
    marches (direct solves) and the adjoint march (transpose solves) share
    its single assembly pass per step.  Each factor is kept while the bytes
    of all kept factors, and of the factors a march holds ahead, stay within
    `cache_bytes` (`_CACHE_BYTES` when None); a factor past the budget is
    formed again on each request.  A single march that uses each factor once
    (the adjoint of a gradient) passes `cache_bytes=0` and keeps none.

    A march names the levels it will request, in order (`ahead`), and their
    Jacobian values are evaluated on this thread a chunk of at most
    `_CHUNK_BYTES` at a time (`Stepper.jacobian_values`).  Each level's LU
    is formed from its own row (`Stepper.factorize`): when it is requested,
    or, in 2-D with more than one CPU, by a pool of worker threads up to
    `_LOOK_AHEAD` levels ahead while the march solves.  Each factor is the
    same computation, so the solves are bitwise those of a march level by
    level.  A factor `lu` returns during a pooled march and does not keep
    is valid until the next request.
    """

    def __init__(self, problem: ControlProblem, state: StateTrajectory,
                 ubar: Control, cache_bytes: int | None = None):
        self.problem = problem
        self.state = state
        self.ubar = ubar
        self._lus: dict[int, object] = {}
        self._cached_bytes = 0
        self._cache_bytes = (_CACHE_BYTES if cache_bytes is None
                             else cache_bytes)
        # the look-ahead of a march: chunks not yet evaluated by first level,
        # rows evaluated and not yet factored, levels still to queue, queued
        # futures, and the factor last returned and not kept
        self._chunks: dict[int, list[int]] = {}
        self._chunk: dict[int, np.ndarray] = {}
        self._pool: _FactorPool | None = None
        self._todo: collections.deque[int] = collections.deque()
        self._ahead: dict[int, Future] = {}
        self._borrowed: _PooledLU | None = None
        self._finalizer: weakref.finalize | None = None

    @contextlib.contextmanager
    def ahead(self, levels: Iterable[int]):
        """Context of a march that requests the factors of `levels`, in that
        order.  The values of the levels not kept are evaluated in chunks of
        at most `_CHUNK_BYTES`, each when its first level is needed, and
        their LUs formed ahead on `_factor_pool` in 2-D with more than one
        usable CPU (1-D band LUs cost less than handing them to a thread),
        else when requested.  A factor that may be kept is formed from a
        copy of its row, so it does not hold its chunk and `cache_bytes`
        counts what is held.  On exit, after a return or an error, no factor
        work or chunk of the march is left, and every factor it formed and
        does not keep has been released."""
        try:
            todo = [k for k in levels if k not in self._lus]
            size = max(1, _CHUNK_BYTES // self.problem.stepper.values_nbytes)
            self._chunks = {todo[i]: todo[i:i + size]
                            for i in range(0, len(todo), size)}
            self._pool = (_factor_pool() if self.problem.stepper.superlu
                          else None)
            if self._pool is not None:
                self._todo = collections.deque(todo)
                self._fill()
            yield
        finally:
            self._todo.clear()
            self._chunks, self._chunk = {}, {}
            self._release_borrowed()
            pending, self._ahead = self._ahead, {}
            for future in pending.values():
                future.cancel()
            for future in pending.values():
                # waits for a factorization already running
                if not future.cancelled() and future.exception() is None:
                    future.result().release()

    def _values(self, k: int) -> np.ndarray:
        """The row of Jacobian values of level k.  Without it, the march's
        chunk that k starts, or else k alone, is evaluated first."""
        if k not in self._chunk:
            levels = self._chunks.pop(k, [k])
            self._chunk = {}    # rows of skipped levels are freed first
            values = self.problem.stepper.jacobian_values(
                self.state.x[levels], self.ubar.u1[levels])
            self._chunk = dict(zip(levels, values))
        row = self._chunk.pop(k)
        return row.copy() if self._cache_bytes else row

    def _fill(self) -> None:
        """Queue the next levels of the march up to `_LOOK_AHEAD` ahead."""
        factorize = self.problem.stepper.factorize
        while self._todo and len(self._ahead) < _LOOK_AHEAD:
            k = self._todo.popleft()
            self._ahead[k] = self._pool.submit(factorize, self._values(k))

    def _release_borrowed(self) -> None:
        if self._borrowed is not None:
            self._borrowed.release()
            self._borrowed = None

    def lu(self, k: int):
        self._release_borrowed()
        hit = self._lus.get(k)
        if hit is not None:
            return hit
        future = self._ahead.pop(k, None)
        try:
            if future is None:
                fac = self.problem.stepper.factorize(self._values(k))
            else:
                self._fill()    # the next level is queued first
                fac = future.result()
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        finally:
            del future      # its error's traceback holds this frame
        size = 12 * fac.nnz
        # each factor held ahead counts as one of this size
        if (self._cached_bytes + size * (1 + len(self._ahead))
                <= self._cache_bytes):
            self._lus[k] = fac
            self._cached_bytes += size
            if isinstance(fac, _PooledLU) and self._finalizer is None:
                self._finalizer = weakref.finalize(self, _release_pooled,
                                                   self._lus)
        elif isinstance(fac, _PooledLU):
            self._borrowed = fac
        return fac

    @functools.cached_property
    def h_phi(self) -> np.ndarray:
        """h(phi) on every level: the factor of u1 in the linearized source."""
        return self.problem.nonlin.H.eval(self.state.phi)

    @functools.cached_property
    def coefficients(self) -> SecondOrderCoefficients:
        """`Stepper.second_order_coefficients` on levels 1..N_t, shared by
        every bilinearized march and Hessian form at this point."""
        return self.problem.stepper.second_order_coefficients(
            self.state.x[1:], self.ubar.u1[1:])


def _march(factors: StepFactors, sources: np.ndarray,
           start: int) -> np.ndarray:
    """Run A_k y^k = B y^{k-1} + S^k from y^0 = 0 for a block of directions.

    A_k is the step Jacobian of `factors` at level k and B the step's
    `transport`.  `sources` stacks the histories of S^k of m directions from
    level `start` >= 1 on, (m, N_t+1-start, 3n); the result stacks whole
    histories, (m, N_t+1, 3n).  Each level takes one solve of a (3n, m)
    block; the march starts at the first level where a source of the block
    is nonzero, and the levels before it stay exactly zero and request no
    factor.  A direction whose own sources start later is solved as a zero
    column until then, which may leave -0.0.
    """
    transport = factors.problem.stepper.transport
    m, _, width = sources.shape
    y = np.zeros((m, factors.problem.n_levels, width))
    live = np.flatnonzero(np.any(sources, axis=(0, 2)))
    if live.size:
        levels = range(start + live[0], y.shape[1])
        with factors.ahead(levels):
            for k in levels:
                rhs = transport @ y[:, k - 1].T + sources[:, k - start].T
                y[:, k] = factors.lu(k).solve(rhs).T
    return y


def solve_generalized_linear(
        factors: StepFactors, h: Control | Sequence[Control], start: int = 1
) -> LinearizedTrajectory | list[LinearizedTrajectory]:
    """Derivative of the control-to-state map at `factors` in direction `h`.

    `h` is one Control, which gives one trajectory, or a sequence of them,
    which are marched as one block and give a list of trajectories in the
    same order.  Each direction enters as the source (-h(phi) h1, 0, h2),
    built as one history before the march, from level `start` on:
    directions that vanish on levels 1..start-1 may say so, and their
    trajectories record it (`LinearizedTrajectory.start`).
    """
    single = isinstance(h, Control)
    dirs = [h] if single else list(h)
    x = factors.state.x
    sources = np.zeros((len(dirs), x.shape[0] - start, x.shape[1]))
    s1, _, s3 = Stepper.split(sources)
    s1[:] = -factors.h_phi[start:] * np.stack([d.u1[start:] for d in dirs])
    s3[:] = np.stack([d.u2[start:] for d in dirs])
    lins = [LinearizedTrajectory(y, start)
            for y in _march(factors, sources, start)]
    return lins[0] if single else lins


def solve_bilinearized(factors: StepFactors, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control,
                       k: Control) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator from zero initial data with the sources
    produced by differentiating the step residual twice, mixing the
    first-order fields of the two directions.
    """
    sources = factors.problem.stepper.second_order_source(
        factors.coefficients, lin_h.y[1:], lin_k.y[1:], h.u1[1:], k.u1[1:])
    return LinearizedTrajectory(_march(factors, sources[None], 1)[0])
