"""The four closed-loop workloads.

Each workload makes its inputs from the seed alone (the simulator only ever
sees generated gates or QASM text), drives the public API (``repro.QTask``,
``QTask.from_qasm``, ``repro.Backend``) and checks every result outside the
timed region: against the independent dense oracle in :mod:`oracle`, or, for
service jobs, against a fresh sequential session.

An *iteration* is one user round trip: edit(s) + ``update_state`` + result
read, or one job from submit to result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import oracle

CIRCUITS = Path(__file__).resolve().parent / "circuits"

#: full-state checks: largest amplitude difference allowed against the oracle
STATE_TOL = 1e-10
#: expectation checks
EXPECTATION_TOL = 1e-9


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _check_support(counts: Dict[str, int], probs: Dict[str, float] | np.ndarray,
                   total: int) -> bool:
    """Counts sum to ``total`` and name only outcomes the oracle allows."""
    if sum(counts.values()) != total:
        return False
    for key in counts:
        p = probs.get(key, 0.0) if isinstance(probs, dict) else probs[int(key, 2)]
        if p <= 1e-24:
            return False
    return True


class Outcome:
    """What one iteration produced, for the untimed check."""

    __slots__ = ("value", "affected", "floor_s", "ok")

    def __init__(self, value, affected: Sequence[float] = ()) -> None:
        self.value = value
        self.affected = list(affected)
        self.floor_s = 0.0
        self.ok = False


class Workload:
    """A sequential closed loop: one client, one session."""

    name = ""
    why = ""
    #: what the generator does to the graph between updates (0 or 1)
    topology_change_share = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.repro = None
        self.session = None
        self.affected: List[float] = []

    # -- inputs -------------------------------------------------------------------

    def inputs(self):
        """A JSON-able description of every generated input (for the digest)."""
        raise NotImplementedError

    def digest(self) -> str:
        return _digest(self.inputs())

    def reset_stream(self) -> None:
        """Restart the seeded iteration stream from its first iteration."""
        raise NotImplementedError

    def next_input(self):
        """The next iteration's input (untimed)."""
        raise NotImplementedError

    # -- the loop -----------------------------------------------------------------

    def setup(self, repro) -> None:
        """Build (or rebuild) the warm session the timed iterations use."""
        raise NotImplementedError

    def step(self, inp) -> Outcome:
        """One timed iteration."""
        raise NotImplementedError

    def check(self, inp, out: Outcome) -> None:
        """Untimed: set ``out.ok`` and ``out.floor_s`` (oracle time)."""
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def run(self, *, seconds: float, min_iters: int, cap_s: float,
            count: Optional[int] = None, trace=None) -> Dict[str, object]:
        """Run iterations until ``seconds`` of iteration time and ``min_iters``
        iterations are done (or exactly ``count`` when given).

        With a :class:`layers.Trace`, each iteration is one ``iteration``
        span and the checks run with the trace paused.
        """
        timed_ctx = (lambda: trace.span("iteration")) if trace else contextlib.nullcontext
        check_ctx = trace.paused if trace else contextlib.nullcontext
        latencies: List[float] = []
        floors: List[float] = []
        failed = 0
        timed = 0.0
        wall0 = time.perf_counter()
        self.reset_stream()
        while True:
            n = len(latencies)
            if count is not None:
                if n >= count:
                    break
            elif timed >= seconds and n >= min_iters:
                break
            if time.perf_counter() - wall0 > cap_s:
                break
            inp = self.next_input()
            t0 = time.perf_counter()
            try:
                with timed_ctx():
                    out = self.step(inp)
            except Exception as exc:  # a failed operation, not a crash
                latencies.append(time.perf_counter() - t0)
                failed += 1
                print(f"[{self.name}] iteration {n} raised {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            latencies.append(dt)
            timed += dt
            try:
                with check_ctx():
                    self.check(inp, out)
            except Exception as exc:
                print(f"[{self.name}] check {n} raised {type(exc).__name__}: {exc}")
                out.ok = False
            if not out.ok:
                failed += 1
                print(f"[{self.name}] iteration {n} result failed its check")
            floors.append(out.floor_s)
            self.affected.extend(out.affected)
        return {
            "latencies": latencies,
            "failed": failed,
            "busy_s": sum(latencies),
            "floors": floors,
        }

    def properties(self) -> Dict[str, object]:
        stats = self.session.statistics() if self.session is not None else {}
        return {"cached_partials": stats.get("cached_observable_partials", 0)}

    def memory(self) -> Tuple[int, int]:
        """(allocated, shared) COW bytes of the live session."""
        if self.session is None:
            return 0, 0
        rep = self.session.memory_report()
        return rep.allocated_bytes, rep.shared_bytes


# ---------------------------------------------------------------------------


def _asap_levels(gates: Sequence[oracle.Op]) -> List[List[oracle.Op]]:
    depth: Dict[int, int] = {}
    levels: List[List[oracle.Op]] = []
    for g in gates:
        d = max(depth.get(q, 0) for q in g[1])
        if d == len(levels):
            levels.append([])
        levels[d].append(g)
        for q in g[1]:
            depth[q] = d + 1
    return levels


class QaoaGradient(Workload):
    """Parameter-shift gradient steps on a ring-MaxCut QAOA."""

    name = "qaoa-gradient"
    why = ("retune-only gradient steps: fixed topology, cones of a few stages "
           "to the whole circuit; exercises frontier, plan, COW, kernels, observables")
    topology_change_share = 0.0
    QUBITS = 10
    ROUNDS = 5
    STRATA = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n = self.QUBITS
        rng = random.Random(f"{self.name}:{seed}")
        gates: List[oracle.Op] = [("h", (q,), ()) for q in range(n)]
        for _ in range(self.ROUNDS):
            gamma, beta = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
            for a in range(n):
                b = (a + 1) % n
                gates += [("cx", (a, b), ()), ("rz", (b,), (2 * gamma,)), ("cx", (a, b), ())]
            gates += [("rx", (q,), (2 * beta,)) for q in range(n)]
        self.levels = _asap_levels(gates)
        self.gates = [g for level in self.levels for g in level]
        self.rotations = [i for i, g in enumerate(self.gates) if g[2]]
        #: H = sum over ring edges of 0.5 * Z_a Z_b
        self.terms = [(0.5, (a, (a + 1) % n)) for a in range(n)]

    def inputs(self):
        return {"gates": self.gates, "stream": self._order(256)}

    def _order(self, count: int) -> List[int]:
        # Stratified by circuit position: the rotations are cut into
        # STRATA runs of neighbours, and each round takes one seeded pick
        # from every run in seeded order.  Any STRATA consecutive
        # iterations then span cones from the circuit head to its tail, so
        # no stretch of a run is biased towards small or large cones.
        rng = random.Random(f"{self.name}:stream:{self.seed}")
        rots = self.rotations
        size = len(rots) / self.STRATA
        strata = [rots[int(k * size):int((k + 1) * size)] for k in range(self.STRATA)]
        out: List[int] = []
        while len(out) < count:
            order = list(range(self.STRATA))
            rng.shuffle(order)
            out += [rng.choice(strata[k]) for k in order]
        return out[:count]

    def reset_stream(self) -> None:
        self._stream = iter(self._order(1 << 16))

    def next_input(self):
        return next(self._stream)

    def setup(self, repro) -> None:
        self.close()
        s = repro.QTask(self.QUBITS)
        self.handles: Dict[int, object] = {}
        i = 0
        for level in self.levels:
            net = s.insert_net()
            for name, qubits, params in level:
                h = s.insert_gate(name, net, *qubits, params=params)
                if params:
                    self.handles[i] = h
                i += 1
        self.observable = repro.PauliSum(
            repro.PauliString({a: "Z", b: "Z"}, coefficient=c) for c, (a, b) in self.terms
        )
        self.session = s
        s.update_state()
        s.expectation(self.observable)

    def step(self, j) -> Outcome:
        s = self.session
        h = self.handles[j]
        theta = self.gates[j][2][0]
        s.update_gate(h, theta + math.pi / 2)
        r1 = s.update_state()
        e_plus = s.expectation(self.observable)
        s.update_gate(h, theta - math.pi / 2)
        r2 = s.update_state()
        e_minus = s.expectation(self.observable)
        s.update_gate(h, theta)
        return Outcome((e_plus, e_minus), (r1.affected_fraction, r2.affected_fraction))

    def check(self, j, out: Outcome) -> None:
        t0 = time.perf_counter()
        expected = []
        for shift in (math.pi / 2, -math.pi / 2):
            ops = list(self.gates)
            name, qubits, params = ops[j]
            ops[j] = (name, qubits, (params[0] + shift,))
            state = oracle.simulate(self.QUBITS, ops)
            expected.append(oracle.expectation_zz(state, self.QUBITS, self.terms))
        out.floor_s = time.perf_counter() - t0
        out.ok = all(abs(a - b) <= EXPECTATION_TOL for a, b in zip(out.value, expected))


class SynthesisEdits(Workload):
    """The paper's Fig. 16 mixed sweep: remove one level, re-insert another."""

    name = "synthesis-edits"
    why = ("every iteration removes and re-inserts a level, so the topology "
           "always changes: graph maintenance and stage-store allocation")
    topology_change_share = 1.0
    CIRCUIT = "multiplier_35-12.qasm"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        prog = oracle.parse_qasm((CIRCUITS / self.CIRCUIT).read_text())
        self.num_qubits = prog.num_qubits
        self.levels = prog.levels()

    def inputs(self):
        return {"circuit": self.CIRCUIT, "levels": self.levels, "seed": self.seed}

    def reset_stream(self) -> None:
        self._rng = random.Random(f"{self.name}:stream:{self.seed}")

    def next_input(self):
        populated = [i for i, hs in enumerate(self.handles) if hs]
        empty = [i for i, hs in enumerate(self.handles) if not hs]
        remove = self._rng.choice(populated)
        insert = self._rng.choice(empty) if empty else None
        return remove, insert

    def setup(self, repro) -> None:
        self.close()
        s = repro.QTask(self.num_qubits)
        self.nets = []
        self.handles: List[list] = []
        for level in self.levels:
            net = s.insert_net()
            self.nets.append(net)
            self.handles.append([s.insert_gate(n, net, *q, params=p) for n, q, p in level])
        self.session = s
        s.update_state()
        s.probabilities()

    def step(self, inp) -> Outcome:
        remove, insert = inp
        s = self.session
        for h in self.handles[remove]:
            s.remove_gate(h)
        self.handles[remove] = []
        if insert is not None:
            net = self.nets[insert]
            self.handles[insert] = [
                s.insert_gate(n, net, *q, params=p) for n, q, p in self.levels[insert]
            ]
        report = s.update_state()
        return Outcome(s.probabilities(), (report.affected_fraction,))

    def check(self, inp, out: Outcome) -> None:
        t0 = time.perf_counter()
        ops = [g for i, level in enumerate(self.levels) if self.handles[i] for g in level]
        expected = oracle.simulate(self.num_qubits, ops)
        out.floor_s = time.perf_counter() - t0
        state = self.session.state()
        out.ok = bool(
            np.max(np.abs(state - expected)) <= STATE_TOL
            and np.max(np.abs(out.value - np.abs(expected) ** 2)) <= STATE_TOL
        )


class QasmFull(Workload):
    """Fresh full simulations from OpenQASM text over seven catalog circuits."""

    name = "qasm-full"
    why = ("fresh from_qasm + full simulation + counts over seven catalog "
           "circuits: incrementality bypassed, graph build and kernels dominate")
    topology_change_share = 1.0
    FILES = ("bv-14.qasm", "seca-10.qasm", "qf21-10.qasm", "adder-11.qasm",
             "qpe-10.qasm", "qft-9.qasm", "multiplier_35-9.qasm")
    SHOTS = 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.texts = [(CIRCUITS / f).read_text() for f in self.FILES]
        self.qubits = [oracle.parse_qasm(t).num_qubits for t in self.texts]
        self.start = random.Random(f"{self.name}:{seed}").randrange(len(self.texts))
        self._last = None

    def _make(self, k: int, rng: random.Random) -> Tuple[str, int]:
        # A seeded final rz layer makes every submitted text distinct, so no
        # result cache can stand in for the simulation.
        base = self.texts[k]
        n = self.qubits[k]
        tail = "".join(f"rz({rng.uniform(-math.pi, math.pi)!r}) q[{q}];\n" for q in range(n))
        return base + tail, rng.randrange(1 << 31)

    def inputs(self):
        self.reset_stream()
        return {"files": self.FILES, "start": self.start,
                "stream": [self.next_input() for _ in range(32)]}

    def reset_stream(self) -> None:
        self._rng = random.Random(f"{self.name}:stream:{self.seed}")
        self._k = 0

    def next_input(self):
        k = (self.start + self._k) % len(self.texts)
        self._k += 1
        return self._make(k, self._rng)

    def setup(self, repro) -> None:
        # Warm-up: one untimed iteration on a fixed circuit, whatever the seed.
        self.close()
        self.repro = repro
        text, cseed = self._make(0, random.Random(f"{self.name}:warmup"))
        s = repro.QTask.from_qasm(text)
        s.update_state()
        s.counts(self.SHOTS, seed=cseed)
        self.session = s

    def step(self, inp) -> Outcome:
        text, cseed = inp
        s = self.repro.QTask.from_qasm(text)
        report = s.update_state()
        return Outcome((s, s.counts(self.SHOTS, seed=cseed)), (report.affected_fraction,))

    def check(self, inp, out: Outcome) -> None:
        text, _ = inp
        session, counts = out.value
        # The previous iteration's session is closed here, untimed; the
        # newest one stays open for memory and trace readings.
        self.close()
        self.session = session
        t0 = time.perf_counter()
        prog = oracle.parse_qasm(text)
        expected = oracle.simulate(prog.num_qubits, prog.ops)
        out.floor_s = time.perf_counter() - t0
        out.ok = bool(
            np.max(np.abs(session.state() - expected)) <= STATE_TOL
            and _check_support(counts, np.abs(expected) ** 2, self.SHOTS)
        )


class ServiceShots(Workload):
    """Two closed-loop clients sending dynamic-circuit shot jobs to a Backend."""

    name = "service-shots"
    why = ("2 closed-loop clients send shot jobs on dynamic circuits: admission "
           "queue, warm session-pool leases, COW fork fleets, per-shot re-collapse")
    topology_change_share = 0.0
    QUBITS = 12
    DEPTH = 12
    FAMILIES = 4
    SHOTS = 32
    CLIENTS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.texts = [self._circuit(f) for f in range(self.FAMILIES)]
        self.backend = None
        self.jobs: List[tuple] = []

    def _circuit(self, family: int) -> str:
        # A deep unitary prefix, then a mid-circuit measurement, an
        # ``if(c==1) x`` correction and a final measurement.
        rng = random.Random(f"{self.name}:circuit:{self.seed}:{family}")
        n = self.QUBITS
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", "creg c[2];"]
        for d in range(self.DEPTH):
            lines += [f"ry({rng.uniform(0, math.pi)!r}) q[{q}];" for q in range(n)]
            lines += [f"cx q[{q}],q[{q + 1}];" for q in range(d % 2, n - 1, 2)]
        lines += ["measure q[0] -> c[0];", "if(c==1) x q[1];",
                  f"ry({rng.uniform(0, math.pi)!r}) q[1];", "measure q[1] -> c[1];"]
        return "\n".join(lines) + "\n"

    def _client_stream(self, client: int):
        rng = random.Random(f"{self.name}:client:{self.seed}:{client}")
        while True:
            yield rng.randrange(self.FAMILIES), rng.randrange(1 << 31)

    def inputs(self):
        streams = [self._client_stream(c) for c in range(self.CLIENTS)]
        return {"circuits": self.texts,
                "jobs": [[next(s) for _ in range(32)] for s in streams]}

    def setup(self, repro) -> None:
        self.close()
        self.repro = repro
        be = repro.Backend({"max_concurrent_jobs": self.CLIENTS})
        self.backend = be
        # Pool warm-up: every family's base session is built once here.
        for f, text in enumerate(self.texts):
            be.run(text, shots=self.SHOTS, seed=f).result(timeout=120)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def run(self, *, seconds: float, min_iters: int, cap_s: float,
            count: Optional[int] = None, trace=None) -> Dict[str, object]:
        timed_ctx = (lambda: trace.span("iteration")) if trace else contextlib.nullcontext
        check_ctx = trace.paused if trace else contextlib.nullcontext
        lock = threading.Lock()
        done: List[tuple] = []
        claimed = [0]
        failures = [0]
        rejected = [0]
        wall0 = time.perf_counter()
        rejections = (self.repro.QueueFullError, self.repro.BackpressureError)

        def claim() -> bool:
            with lock:
                elapsed = time.perf_counter() - wall0
                if count is not None:
                    ok = claimed[0] < count
                else:
                    ok = (elapsed < seconds or claimed[0] < min_iters) and elapsed < cap_s
                if ok:
                    claimed[0] += 1
                return ok

        def client(c: int) -> None:
            for family, jseed in self._client_stream(c):
                if not claim():
                    return
                t0 = time.perf_counter()
                try:
                    with timed_ctx():
                        res = self.backend.run(self.texts[family], shots=self.SHOTS,
                                               seed=jseed).result(timeout=120)
                except rejections as exc:
                    with lock:
                        failures[0] += 1
                        rejected[0] += 1
                    print(f"[{self.name}] job rejected: {exc}")
                    continue
                except Exception as exc:
                    with lock:
                        failures[0] += 1
                    print(f"[{self.name}] job raised {type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    done.append((family, jseed, res, dt))

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall0
        self.jobs = done

        with check_ctx():
            failed, floors = self._verify(done)
        return {
            "latencies": [d[3] for d in done],
            "failed": failed + failures[0],
            "attempted": len(done) + failures[0],
            "busy_s": wall,
            "floors": floors,
            "rejected": rejected[0],
        }

    def _verify(self, done) -> Tuple[int, List[float]]:
        """Every histogram against a fresh sequential session (untimed).

        Returns the number of mismatches and, per job, the oracle's time for
        the exact outcome distribution of the job's circuit.
        """
        failed = 0
        floors: List[float] = []
        verifiers: Dict[int, object] = {}
        exact: Dict[int, Tuple[float, Dict[str, float]]] = {}
        try:
            for family, jseed, res, _ in done:
                if family not in verifiers:
                    v = self.repro.QTask.from_qasm(self.texts[family], num_workers=1)
                    v.update_state()
                    verifiers[family] = v
                    t0 = time.perf_counter()
                    dist = oracle.outcome_distribution(oracle.parse_qasm(self.texts[family]))
                    exact[family] = (time.perf_counter() - t0, dist)
                expected = verifiers[family].run_shots(self.SHOTS, seed=jseed)
                floor_s, dist = exact[family]
                floors.append(floor_s)
                if res.counts != expected or not _check_support(res.counts, dist, self.SHOTS):
                    failed += 1
                    print(f"[{self.name}] job {res.job_id} histogram {res.counts} "
                          f"!= sequential {expected}")
        finally:
            for v in verifiers.values():
                v.close()
        return failed, floors

    def properties(self) -> Dict[str, object]:
        hits = [d[2].pool_hit for d in self.jobs]
        return {"pool_hit_ratio": sum(hits) / len(hits) if hits else 0.0}

    def memory(self) -> Tuple[int, int]:
        if self.backend is None:
            return 0, 0
        return int(self.backend.pool.stats()["owned_bytes"]), 0


WORKLOADS = {w.name: w for w in (QaoaGradient, SynthesisEdits, QasmFull, ServiceShots)}
