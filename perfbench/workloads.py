"""The benchmark workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs fixed *rounds* of operations through the public API, and checks
every output against a reference that does not share the code under
test where one exists.  Load comes from this one process: at most
``nproc`` solver threads, or one HTTP client connection.

Why these five (the one-line reasons are in ``BENCHMARK.json``):

* ``sweep_serial`` / ``sweep_parallel`` characterize the same seeded
  Table I substitutes at one thread and at ``nproc`` threads — the
  paper's tau_1 against tau_T comparison.  Hamiltonian, Arnoldi and
  scheduler do almost all the work; store, queue, service and vectfit
  none.
* ``enforce_pipeline`` takes sampled 4- and 8-port responses through
  fit, check, enforce and simulate.  Enforcement re-characterizes
  perturbed models, so a change to enforcement alone shows here and not
  on the sweeps.
* ``service_fresh`` / ``service_hit`` drive an in-process server with
  one embedded worker on the default process backend: fresh specs go
  store miss, queue, worker, fork, solve, store put; resubmissions are
  answered from the store at submit.  The client loop is closed,
  because callers wait for their reply.
"""

from __future__ import annotations

import http.client
import json
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.core
from repro.api import Macromodel
from repro.core import RunConfig
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoColumn, SimoRealization
from repro.queue.db import TERMINAL_STATES
from repro.service import ReproServer
from repro.synth import random_macromodel
from repro.synth.generator import random_simo_macromodel, scale_to_sigma_target
from repro.synth.workloads import TABLE1_CASES

from perfbench.layers import JobRecord

#: Table I cases substituted at :data:`TABLE1_SCALE`: 1 (p=20, two
#: crossings), 4 (passive) and 5 (p=56).  Each round characterizes
#: :data:`TABLE1_VARIANTS` seeded substitutes of each case, which
#: averages out most of the 10-20% seed-to-seed spread of one model's
#: work while leaving time for several rounds in a run.
TABLE1_IDS = (1, 4, 5)
TABLE1_SCALE = 0.03
TABLE1_VARIANTS = 6

#: Crossing frequencies must match the dense oracle to this relative
#: tolerance (the solver's own ``imag_rtol`` is 1e-7).
ORACLE_RTOL = 1e-6

#: Crossings of a service job must equal an in-process solve to this
#: relative tolerance (same code, same inputs: they agree to round-off).
PARITY_RTOL = 1e-9

#: Sample grid of the enforcement pipeline, rad/s.
PIPELINE_FREQS = np.linspace(0.05, 14.0, 300)

#: Service-sized synthetic jobs: order per column 10-20, 2 ports.
SERVICE_ORDERS = (10, 20)
SERVICE_SIGMA = 1.05

#: Time of :meth:`Calibrator.kernel` on the reference host, a 2-vCPU
#: Xeon VM, when that host runs at full speed.
REFERENCE_KERNEL_S = 0.002

#: Upper bound of the seeded think time between fresh jobs.  Fresh jobs
#: wait for the worker's 0.2 s queue poll; a random think time keeps the
#: client from phase-locking to that poll.
THINK_SECONDS = 0.05


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def crossings_match(
    found: Sequence[float], reference: Sequence[float], rtol: float
) -> bool:
    """Same count, and each crossing within ``rtol`` of its reference."""
    found = np.sort(np.asarray(found, dtype=float))
    reference = np.sort(np.asarray(reference, dtype=float))
    if found.shape != reference.shape:
        return False
    tolerance = rtol * np.maximum(1.0, reference)
    return bool(np.all(np.abs(found - reference) <= tolerance))


def add_work(total: Dict[str, int], work: Dict[str, int]) -> None:
    for key, value in work.items():
        total[key] = total.get(key, 0) + int(value)


class Calibrator:
    """Tracks the host's speed with a fixed kernel timed between items.

    The kernel mixes what the solver spends its time on: interpreted
    Python, small complex matrix products and a small dense eigensolve.
    The host the benchmark was tuned on runs everything up to 1.6 times
    slower for phases that can last a whole run; the kernel slows down
    with it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.b = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
        self.e = rng.standard_normal((40, 40))

    def kernel(self) -> float:
        """Seconds one run of the kernel takes."""
        started = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        for _ in range(20):
            self.a @ self.b
        np.linalg.eigvals(self.e)
        return time.perf_counter() - started

    def slowdown(self) -> float:
        """The host's current slowness: 1.0 is the reference host's speed."""
        return min(self.kernel() for _ in range(3)) / REFERENCE_KERNEL_S


@dataclass
class Round:
    """The outcome of one round of operations."""

    latencies: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    items: List[str] = field(default_factory=list)
    groups: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    work: Dict[str, int] = field(default_factory=dict)
    rows: List[dict] = field(default_factory=list)
    jobs: List[JobRecord] = field(default_factory=list)

    def add(
        self, item: str, latency: float, group: str = "", slowdown: float = 1.0
    ) -> None:
        """Record one item's latency.

        ``group`` names the operation the item is part of, and
        ``slowdown`` is the host's slowness while it ran.
        """
        self.items.append(item)
        self.groups.append(group or item)
        self.latencies.append(latency)
        self.scaled.append(latency / slowdown)

    @property
    def wall_s(self) -> float:
        """Time to every result of the round (think time excluded)."""
        return float(sum(self.latencies))


class Workload:
    """Interface of a workload; the harness times :meth:`setup`.

    A ``cpu_bound`` workload runs the same items every round.  Each
    item's time is scaled to the reference host's speed, measured by a
    :class:`Calibrator` next to it, and the harness keeps each item's
    best scaled time over the rounds of a run.  An operation is then a
    group of items of about the same size, so that the median operation
    does not jump between model sizes from seed to seed.
    """

    name = ""
    cpu_bound = True

    def __init__(self, seed: int, nproc: int, tmp_root: str) -> None:
        self.seed = seed
        self.nproc = nproc
        self.tmp_root = tmp_root
        self.calibrator = Calibrator() if self.cpu_bound else None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def collect(self, rnd: Round) -> None:
        """Attach per-job traces to a traced round (service workloads)."""

    def verify(self, rounds: Sequence[Round]) -> List[str]:
        """Checks deferred until after the timed rounds; returns failures."""
        return []

    def close(self) -> None:
        """Release everything :meth:`setup` acquired."""


def table1_model(case_id: int, seed: int) -> SimoRealization:
    """Seeded substitute of a Table I case at :data:`TABLE1_SCALE`.

    Same recipe as :func:`repro.synth.workloads.build_case` (the case's
    order, ports, Q range and sigma target), except that the residue
    scale is searched with 12 bisection steps on a grid of 40 points
    plus the resonances: the generator's 40 steps on its much finer grid
    take seconds per 56-port model, and set-up runs three times per run.
    """
    spec = TABLE1_CASES[case_id - 1]
    order = max(spec.ports, int(round(spec.order * TABLE1_SCALE)))
    model = random_simo_macromodel(
        order, spec.ports, seed=seed, sigma_target=None, q_range=spec.q_range
    )
    poles = model.poles()
    resonant = poles[poles.imag > 0]
    grid = np.unique(np.concatenate([np.linspace(0.0, 13.0, 40), resonant.imag]))
    scale = scale_to_sigma_target(
        model.d, model.frequency_response(grid), spec.sigma_target, iterations=12
    )
    columns = [
        SimoColumn(
            c.real_poles, scale * c.real_residues, c.pair_poles, scale * c.pair_residues
        )
        for c in model.columns
    ]
    return SimoRealization(columns, model.d)


class SweepWorkload(Workload):
    """Seeded Table I substitutes, each characterized once per round."""

    threads = 1

    def setup(self) -> None:
        self.config = RunConfig(num_threads=self.threads, backend="thread")
        self.cases = []
        for case_id in TABLE1_IDS:
            for variant in range(TABLE1_VARIANTS):
                model = table1_model(case_id, derive_seed(self.seed, case_id, variant))
                name = f"Case {case_id} variant {variant}"
                reference = imaginary_eigenvalues_dense(model)
                self.cases.append((name, f"set {variant}", model, reference))

    def run_round(self) -> Round:
        rnd = Round()
        before = self.calibrator.slowdown()
        for name, group, model, reference in self.cases:
            started = time.perf_counter()
            try:
                result = repro.core.solve(model, self.config)
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.add(name, time.perf_counter() - started, group)
                rnd.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - started
            after = self.calibrator.slowdown()
            rnd.add(name, latency, group, 0.5 * (before + after))
            before = after
            add_work(rnd.work, result.work)
            if not crossings_match(result.omegas, reference, ORACLE_RTOL):
                rnd.failures.append(
                    f"{name}: crossings {list(result.omegas)} != dense oracle"
                    f" {list(reference)}"
                )
        return rnd


class SweepSerial(SweepWorkload):
    name = "sweep_serial"
    threads = 1


class SweepParallel(SweepWorkload):
    name = "sweep_parallel"

    def setup(self) -> None:
        self.threads = max(2, self.nproc)
        super().setup()


#: (label, order per column, ports, seed or None to derive, sigma target).
#: The first model is fixed because it is known to need two enforcement
#: iterations, so the multi-iteration path runs whatever the seed.  The
#: seeded ones are mildly non-passive, so each needs one iteration:
#: models that need one or two at random would make the total work
#: swing with the seed.
PIPELINE_MODELS = (("fixed-8port", 8, 8, 1000, 1.3),) + tuple(
    (f"seeded-{ports}port-{k}", order, ports, None, sigma)
    for order, ports, sigma in ((12, 4, 1.03), (8, 8, 1.05))
    for k in range(3)
)


def pipeline_group(label: str) -> str:
    """Operation of a pipeline model: the fixed one alone, seeded ones in pairs."""
    return "set " + label.rsplit("-", 1)[-1] if label.startswith("seeded") else label


class EnforcePipeline(Workload):
    """Sampled responses through fit, check, enforce and simulate."""

    name = "enforce_pipeline"

    def setup(self) -> None:
        self.inputs = []
        for index, (label, order, ports, seed, sigma) in enumerate(PIPELINE_MODELS):
            if seed is None:
                seed = derive_seed(self.seed, 100 + index)
            model = random_macromodel(order, ports, seed=seed, sigma_target=sigma)
            samples = model.frequency_response(PIPELINE_FREQS)
            self.inputs.append((label, order, samples))

    def run_round(self) -> Round:
        rnd = Round()
        before = self.calibrator.slowdown()
        for label, order, samples in self.inputs:
            started = time.perf_counter()
            try:
                session = (
                    Macromodel.from_samples(PIPELINE_FREQS, samples)
                    .fit(num_poles=order)
                    .check_passivity()
                    .enforce()
                    .simulate()
                )
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.add(label, time.perf_counter() - started, pipeline_group(label))
                rnd.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - started
            after = self.calibrator.slowdown()
            rnd.add(label, latency, pipeline_group(label), 0.5 * (before + after))
            before = after
            enforcement = session.enforcement_result
            for report in enforcement.reports:
                if report.solve is not None:
                    add_work(rnd.work, report.solve.work)
            problem = self._not_passive(session.model)
            if not problem and not enforcement.passive:
                problem = "is not passive by its own report"
            if problem:
                rnd.failures.append(f"{label}: enforced model {problem}")
        return rnd

    @staticmethod
    def _not_passive(model) -> str:
        """Why the dense oracle rejects ``model``, or '' when it is passive."""
        crossings = imaginary_eigenvalues_dense(pole_residue_to_simo(model))
        if crossings.size:
            return f"has crossings {list(crossings)} by the dense oracle"
        if np.linalg.norm(model.d, 2) >= 1.0:
            return "has sigma(D) >= 1"
        return ""


class ServiceClient:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def run_job(self, spec: dict):
        """POST a job, wait for its terminal event: (row, latency, record)."""
        started = time.perf_counter()
        status, row = self.request("POST", "/v1/jobs", spec)
        submit_s = time.perf_counter() - started
        if status not in (200, 202):
            raise RuntimeError(f"submit answered {status}: {row}")
        while row["status"] not in TERMINAL_STATES:
            status, row = self.request(
                "GET", f"/v1/jobs/{row['id']}/events?since={row['version']}&timeout=30"
            )
            if status != 200:
                raise RuntimeError(f"events answered {status}: {row}")
        latency = time.perf_counter() - started
        lag_s = max(0.0, time.time() - (row.get("finished") or time.time()))
        return row, latency, JobRecord(submit_s=submit_s, lag_s=lag_s)

    def trace(self, job_id: str, *, wait: float = 5.0) -> List[dict]:
        """The job's persisted spans, once its ``job`` root is written."""
        deadline = time.perf_counter() + wait
        while True:
            status, payload = self.request("GET", f"/v1/jobs/{job_id}/trace")
            spans = payload.get("spans", []) if status == 200 else []
            if any(s["name"] == "job" for s in spans) or time.perf_counter() > deadline:
                return spans
            time.sleep(0.02)

    def close(self) -> None:
        self.conn.close()


def service_spec(order: int, seed: int) -> dict:
    return {
        "kind": "synth",
        "task": "check",
        "order": int(order),
        "ports": 2,
        "seed": int(seed),
        "sigma_target": SERVICE_SIGMA,
    }


def reference_crossings(spec: dict) -> np.ndarray:
    """Crossings of an in-process solve of the spec's seeded model."""
    model = random_macromodel(
        spec["order"],
        spec["ports"],
        seed=spec["seed"],
        sigma_target=spec["sigma_target"],
    )
    return repro.core.solve(model, RunConfig()).omegas


class ServiceWorkload(Workload):
    """An in-process server, one embedded worker, one closed-loop client."""

    cpu_bound = False
    block = 1

    def setup(self) -> None:
        self.rng = np.random.default_rng(derive_seed(self.seed, 300))
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp_root)
        self.server = ReproServer.create(
            port=0,
            config=RunConfig(cache="readwrite", cache_dir=self.store_dir),
            workers=1,
        )
        self.server.start_background()
        self.client = ServiceClient(self.server.port)
        self.issued = 0

    def next_spec(self) -> dict:
        self.issued += 1
        order = int(self.rng.integers(SERVICE_ORDERS[0], SERVICE_ORDERS[1] + 1))
        return service_spec(order, derive_seed(self.seed, 400, self.issued))

    def run_round(self) -> Round:
        rnd = Round()
        for spec in self.round_specs():
            started = time.perf_counter()
            try:
                row, latency, record = self.client.run_job(spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.add(str(spec["seed"]), time.perf_counter() - started)
                rnd.failures.append(f"{spec}: {type(exc).__name__}: {exc}")
                continue
            rnd.add(str(spec["seed"]), latency)
            rnd.rows.append(dict(row, spec=spec))
            rnd.jobs.append(record)
            self.think()
        return rnd

    def round_specs(self) -> List[dict]:
        raise NotImplementedError

    def think(self) -> None:
        """Pause between operations (none by default)."""

    def collect(self, rnd: Round) -> None:
        for row, record in zip(rnd.rows, rnd.jobs):
            record.trace = self.client.trace(row["id"])

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


class ServiceFresh(ServiceWorkload):
    """Fresh specs only: every job misses the store and runs on the worker."""

    name = "service_fresh"
    block = 4

    def setup(self) -> None:
        super().setup()
        self.think_rng = random.Random(derive_seed(self.seed, 500))
        # Warm the worker's code paths (first fork, first solve).
        self.client.run_job(self.next_spec())

    def round_specs(self) -> List[dict]:
        return [self.next_spec() for _ in range(self.block)]

    def think(self) -> None:
        time.sleep(self.think_rng.uniform(0.0, THINK_SECONDS))

    def verify(self, rounds: Sequence[Round]) -> List[str]:
        failures = []
        for rnd in rounds:
            for row in rnd.rows:
                problem = fresh_problem(row, reference_crossings(row["spec"]))
                if problem:
                    failures.append(f"{row['spec']}: {problem}")
        return failures


def fresh_problem(row: dict, reference: np.ndarray) -> str:
    """Why a fresh job's row is wrong, or '' when it is right.

    It must end done, not from the store, with the crossings of an
    in-process solve of the same model.
    """
    if row["status"] != "done" or row["cached"]:
        return f"status {row['status']} cached={row['cached']}: {row['error']}"
    found = row["result"]["crossings"]
    if not crossings_match(found, reference, PARITY_RTOL):
        return f"crossings {found} != in-process solve {list(reference)}"
    return ""


class ServiceHit(ServiceWorkload):
    """Resubmissions of specs whose results are already in the store."""

    name = "service_hit"
    block = 32
    distinct = 2

    def setup(self) -> None:
        super().setup()
        self.warm = []
        for _ in range(self.distinct):
            spec = self.next_spec()
            row, _, _ = self.client.run_job(spec)
            self.warm.append((spec, row, reference_crossings(spec)))
        self.cursor = 0

    def round_specs(self) -> List[dict]:
        specs = []
        for _ in range(self.block):
            specs.append(self.warm[self.cursor % self.distinct][0])
            self.cursor += 1
        return specs

    def verify(self, rounds: Sequence[Round]) -> List[str]:
        # A wrong first answer makes every resubmission of it wrong too.
        first = {
            spec["seed"]: (row["result"], fresh_problem(row, reference))
            for spec, row, reference in self.warm
        }
        failures = []
        for rnd in rounds:
            for row in rnd.rows:
                payload, problem = first[row["spec"]["seed"]]
                if not problem and (row["status"] != "done" or not row["cached"]):
                    problem = "resubmission not answered from the store"
                if not problem and row["result"] != payload:
                    problem = "cached payload differs from the fresh one"
                if problem:
                    failures.append(f"{row['spec']}: {problem}")
        return failures


WORKLOADS = {
    cls.name: cls
    for cls in (SweepSerial, SweepParallel, EnforcePipeline, ServiceFresh, ServiceHit)
}
