"""The four workloads: inputs from a seed, one op each, its checks.

Each workload puts a different layer of ``repro`` on the critical path:

* ``si8-tddft-cold`` — the SCF substrate (``dft``, ``eigen``, ``pw``);
* ``si64-excitation-scan`` — the ISDF/Casida kernels (``core``), no SCF;
* ``serve-mixed`` — the job server (``serve``): queue, store, reuse tiers;
* ``trajectory-batch`` — the trajectory engine (``batch``) on ``parallel``.

An op verifies its own result (convergence, cache bit-identity, agreement
with a reference run) before it counts as done; a failed check raises
:class:`CheckFailed`.  Dense Casida cross-checks on a seeded sample of ops
run after the timed pass, in :meth:`Workload.dense_check`.

The program is always called through module attributes
(``repro.api.request.execute_request``), never through names bound here,
so the traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import repro.api.request as request_module
from repro.api.config import BatchConfig, SCFConfig, TDDFTConfig
from repro.api.request import CalculationRequest
from repro.atoms.structures import SILICON_A_BOHR, bulk_silicon, silicon_primitive_cell
from repro.batch.trajectory import perturbed_trajectory
from repro.pw.cell import UnitCell
from repro.serve import CalculationServer
from repro.synthetic import synthetic_ground_state

from perfbench.sites import median_or_zero, queue_waits, spmd_spans
from perfbench.spans import adopt

#: Share of ops sampled for a dense Casida cross-check, and the most that
#: are checked per pass.
DENSE_SAMPLE_RATE = 0.5
DENSE_SAMPLE_MAX = 2

#: Slack on top of the eigensolver bound for the dense solve's own rounding.
_DENSE_ROUNDING = 1e-12


class CheckFailed(AssertionError):
    """An op's result failed a correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpRecord:
    """One op: its wall window, outcome, and what the later checks need."""

    index: int
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    error: str | None = None
    units: int = 1
    tier: str = ""
    sampled: bool = False
    payload: object = None
    layer: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


def op_rng(seed: int, index: int, salt: str = "") -> random.Random:
    """The seeded generator of op ``index`` (independent of thread timing)."""
    return random.Random(f"{seed}:{index}:{salt}")


def is_sampled(seed: int, index: int) -> bool:
    return op_rng(seed, index, "dense").random() < DENSE_SAMPLE_RATE


def cycled(items, seed: int, index: int):
    """Item ``index`` of ``items`` repeated in cycles, each shuffled by seed.

    Every complete cycle holds each item once, so the mix of a run does not
    depend on the seed or on how many ops fit in the time.
    """
    cycle, slot = divmod(index, len(items))
    order = list(items)
    random.Random(f"{seed}:cycle:{cycle}").shuffle(order)
    return order[slot]


def perturbed(cell: UnitCell, rng: random.Random, rms: float) -> UnitCell:
    """``cell`` with every atom displaced by a seeded Gaussian of ``rms`` bohr."""
    nprng = np.random.default_rng(rng.randrange(2**63))
    disp = nprng.standard_normal((len(cell.species), 3)) * (rms / np.sqrt(3.0))
    frac = (cell.fractional_positions + disp @ np.linalg.inv(cell.lattice)) % 1.0
    return UnitCell(cell.lattice, cell.species, frac)


def fingerprint(result) -> str:
    """Hash of a result's numbers: equal only for bit-identical results."""
    digest = hashlib.sha256()
    for name in ("energies", "eigenvalues", "density", "total_energy"):
        value = getattr(result, name, None)
        if value is not None:
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return digest.hexdigest()


def check_tddft(result) -> None:
    check(bool(result.converged), "Casida eigensolver did not converge")


def check_scf(ground_state) -> None:
    check(bool(ground_state.converged), "SCF did not converge")


def dense_agreement(request, ground_state, energies) -> None:
    """Compare iterative excitation energies with a dense solve.

    The dense twin of the implicit method (``kmeans-isdf``) uses the same
    seed, hence the same interpolation points and the same ISDF
    Hamiltonian.  LOBPCG stops when ``||H x - θ x|| <= tol·max(1, |θ|)``,
    and for a Hermitian operator that residual bounds ``|θ - λ|``.
    """
    tol = request.tddft.tol
    dense = CalculationRequest(
        kind="tddft",
        structure=request.structure,
        scf=request.scf,
        tddft=request.tddft.replace(method="kmeans-isdf"),
    )
    exact = request_module.execute_request(dense, ground_state=ground_state).result
    got = np.asarray(energies, dtype=float)
    want = np.asarray(exact.energies, dtype=float)[: got.size]
    bound = tol * np.maximum(1.0, np.abs(want)) + _DENSE_ROUNDING
    worst = np.abs(got - want) - bound
    check(
        got.size == want.size and bool((worst <= 0).all()),
        f"excitation energies differ from the dense solve by up to "
        f"{float(np.max(np.abs(got - want))):.3e} (bound {float(bound.max()):.3e})",
    )


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    clients = 1

    def prepare(self, seed: int):
        """Build inputs and shared state; timed (three times) as ``setup_s``."""
        raise NotImplementedError

    def reference(self, state) -> None:
        """One-off reference results the checks compare against."""

    def op(self, state, record: OpRecord) -> None:
        """Run and verify op ``record.index``; raise on any failure."""
        raise NotImplementedError

    def dense_check(self, state, record: OpRecord) -> None:
        """Dense cross-check of a sampled op (outside the timed pass).

        ``record.payload`` is ``(request, ground state, energies)``.
        """
        dense_agreement(*record.payload)

    def teardown(self, state) -> None:
        """Release what :meth:`prepare` started."""

    def layer_metrics(self, state, records, spans) -> dict:
        """Per-layer metrics that come from results rather than spans."""
        return {}


# -- si8-tddft-cold ------------------------------------------------------------


@dataclass
class _ColdState:
    seed: int
    cell: UnitCell
    scf: SCFConfig


class Si8TDDFTCold(Workload):
    """Every op is a full SCF + LR-TDDFT on a fresh geometry, so the SCF
    substrate (band solve, polish, H-apply FFTs, Rayleigh-Ritz) dominates."""

    name = "si8-tddft-cold"
    ecut = 4.0
    rms = 0.02

    def prepare(self, seed):
        state = _ColdState(seed, bulk_silicon(8), SCFConfig(ecut=self.ecut))
        # Warm-up: one Si2 request at the same cutoff lets lazy imports and
        # FFT set-up finish before timing; no result is reused by the ops.
        warm = CalculationRequest(
            kind="tddft", structure=silicon_primitive_cell(), scf=state.scf
        )
        check_tddft(request_module.execute_request(warm).result)
        return state

    def request(self, state, index):
        cell = perturbed(state.cell, op_rng(state.seed, index), self.rms)
        return CalculationRequest(kind="tddft", structure=cell, scf=state.scf)

    def op(self, state, record):
        request = self.request(state, record.index)
        outcome = request_module.execute_request(request)
        check_scf(outcome.ground_state)
        check_tddft(outcome.result)
        if record.sampled:
            record.payload = (request, outcome.ground_state, outcome.result.energies)


# -- si64-excitation-scan -----------------------------------------------------


@dataclass
class _ScanState:
    seed: int
    cell: UnitCell
    ground_state: object


class Si64ExcitationScan(Workload):
    """LR-TDDFT on one prepared Si64 ground state with varied seed,
    n_excitations and spin: K-Means, ISDF fit, Hxc kernel and implicit Casida
    do all the work, and SCF is bypassed.  The 32x32 transition window keeps
    the dense cross-check affordable."""

    name = "si64-excitation-scan"
    ecut = 4.0
    n_valence = 32
    n_conduction = 32

    #: One cycle of (n_excitations, spin); shuffled per cycle, so every run
    #: sees the same mix whatever its length.
    cycle = tuple((k, spin) for k in (4, 6, 8, 10) for spin in ("singlet", "triplet"))

    def prepare(self, seed):
        # One fixed ground state; the seed varies the requests made on it.
        cell = bulk_silicon(64)
        return _ScanState(seed, cell, synthetic_ground_state(cell, ecut=self.ecut))

    def request(self, state, index):
        n_excitations, spin = cycled(self.cycle, state.seed, index)
        tddft = TDDFTConfig(
            seed=op_rng(state.seed, index).randrange(2**31),
            n_excitations=n_excitations,
            spin=spin,
            n_valence=self.n_valence,
            n_conduction=self.n_conduction,
        )
        return CalculationRequest(
            kind="tddft", structure=state.cell, scf=SCFConfig(ecut=self.ecut), tddft=tddft
        )

    def op(self, state, record):
        request = self.request(state, record.index)
        outcome = request_module.execute_request(request, ground_state=state.ground_state)
        check(outcome.scf_iterations == 0, "the prepared ground state was not used")
        check_tddft(outcome.result)
        if record.sampled:
            record.payload = (request, state.ground_state, outcome.result.energies)


# -- serve-mixed ---------------------------------------------------------------

#: One cycle of intents; shuffled per cycle.  Hits and SCF-subrequest hits
#: are 7 of 20, so the median op is a warm start.
_SERVE_CYCLE = ("hit",) * 4 + ("sub",) * 3 + ("warm",) * 6 + ("cold",) * 7
_SERVE_PRIMES = 2
_LATTICE_STEP = 2e-4
_WARM_RMS = 0.02


@dataclass
class _ServeState:
    seed: int
    server: CalculationServer
    scf: SCFConfig
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Solved SCF structures: [cell, tddft already requested].
    solved: list = field(default_factory=list)
    #: cache key -> (request payload, fingerprint of the first result).
    firsts: dict = field(default_factory=dict)
    n_lattices: int = 0
    #: id(request) -> perf_counter when its submit returned.
    submitted: dict = field(default_factory=dict)
    #: The submitted requests, kept alive so their ids stay unique.
    keepalive: list = field(default_factory=list)


class ServeMixed(Workload):
    """Two closed-loop clients against a two-worker server with exact
    repeats, SCF-subrequest hits, warm starts and cold misses, so queue,
    store and every reuse tier show, and reads run beside writes."""

    name = "serve-mixed"
    clients = 2

    def prepare(self, seed):
        state = _ServeState(seed, CalculationServer(n_workers=2), SCFConfig())
        for _ in range(_SERVE_PRIMES):
            request = CalculationRequest(kind="scf", structure=self._fresh_cell(state), scf=state.scf)
            result = state.server.submit(request).result(timeout=120)
            check_scf(result)
            self._register(state, request, result)
        return state

    def teardown(self, state):
        state.server.shutdown()

    # -- input generation (under state.lock) ---------------------------------

    @staticmethod
    def _fresh_cell(state):
        # A lattice no cached entry has: nothing is warm-compatible.
        state.n_lattices += 1
        scale = 1.0 + _LATTICE_STEP * state.n_lattices
        return silicon_primitive_cell(SILICON_A_BOHR * scale)

    def _register(self, state, request, result):
        key = request.cache_key()
        if key in state.firsts:
            return
        state.firsts[key] = (request.to_dict(), fingerprint(result))
        if request.kind == "scf":
            state.solved.append([request.structure, False])

    def request(self, state, index):
        rng = op_rng(state.seed, index)
        intent = cycled(_SERVE_CYCLE, state.seed, index)
        with state.lock:
            if intent == "hit":
                key = rng.choice(sorted(state.firsts))
                return CalculationRequest.from_dict(state.firsts[key][0])
            if intent == "sub":
                free = [entry for entry in state.solved if not entry[1]]
                if free:
                    entry = rng.choice(free)
                    entry[1] = True
                    return CalculationRequest(
                        kind="tddft", structure=entry[0], scf=state.scf
                    )
                intent = "warm"
            if intent == "warm":
                cell = perturbed(rng.choice(state.solved)[0], rng, _WARM_RMS)
            else:
                cell = self._fresh_cell(state)
        return CalculationRequest(kind="scf", structure=cell, scf=state.scf)

    def op(self, state, record):
        request = self.request(state, record.index)
        adopt(id(request))
        handle = state.server.submit(request)
        with state.lock:
            state.submitted[id(request)] = time.perf_counter()
            state.keepalive.append(request)
        result = handle.result(timeout=120)
        status = handle.record()
        if handle.cache_hit:
            record.tier = "hit"
        elif request.kind == "tddft" and status["scf_iterations"] == 0:
            record.tier = "sub"
        elif handle.warm:
            record.tier = "warm"
        else:
            record.tier = "cold"
        if request.kind == "scf":
            check_scf(result)
        else:
            check_tddft(result)
        key = request.cache_key()
        with state.lock:
            first = state.firsts.get(key)
        if first is not None:
            check(
                fingerprint(result) == first[1],
                f"{record.tier} result under key {key[:12]} is not bit-identical "
                f"to the first result",
            )
        with state.lock:
            self._register(state, request, result)
        if record.sampled and request.kind == "tddft":
            sub = state.server.store.get(request.scf_subrequest().cache_key())
            record.payload = (request, sub.ground_state, result.energies)

    def layer_metrics(self, state, records, spans):
        done = [r for r in records if r.ok] or records
        n = max(1, len(done))
        stats = state.server.stats()

        def share(tier):
            return sum(r.tier == tier for r in done) / n

        return {
            "serve.queue_wait_s": median_or_zero(queue_waits(spans, state.submitted)),
            "serve.hit_ratio": share("hit"),
            "serve.subrequest_hit_ratio": share("sub"),
            "serve.warm_ratio": share("warm"),
            "serve.dedup_ratio": stats["deduplicated"] / max(1, stats["submitted"]),
            "serve.hit_latency_s": median_or_zero(r.latency for r in done if r.tier == "hit"),
        }


# -- trajectory-batch ---------------------------------------------------------


@dataclass
class _BatchState:
    seed: int
    frames: list
    config: BatchConfig
    reference: list | None = None


class TrajectoryBatch(Workload):
    """A warm-started batch request over a perturbed Si2 trajectory on two
    forked ranks: the only request path through batch.warm and
    parallel.spmd_run."""

    name = "trajectory-batch"
    n_frames = 12
    n_ranks = 2

    def prepare(self, seed):
        frames = perturbed_trajectory(silicon_primitive_cell(), self.n_frames, seed=seed)
        config = BatchConfig(n_ranks=self.n_ranks, spmd_backend="process", warm_start=True)
        state = _BatchState(seed, frames, config)
        # Warm-up: a two-frame batch forks the ranks once before timing.
        warm = CalculationRequest(kind="batch", structure=frames[:2], batch=config)
        for rec in request_module.execute_request(warm).result.records:
            check(rec.scf_converged and rec.tddft_converged, "warm-up frame did not converge")
        return state

    #: seed -> records of the one-rank run (made once per process).
    _references: dict = {}

    def reference(self, state):
        if state.seed not in self._references:
            serial = CalculationRequest(
                kind="batch", structure=state.frames, batch=state.config.replace(n_ranks=1)
            )
            self._references[state.seed] = list(
                request_module.execute_request(serial).result.records
            )
        state.reference = self._references[state.seed]

    def op(self, state, record):
        request = CalculationRequest(kind="batch", structure=state.frames, batch=state.config)
        records = request_module.execute_request(request).result.records
        check(len(records) == self.n_frames, f"{len(records)} frame records")
        # Each run converges to within the SCF tolerance of the same fixed
        # point, so two runs warm-started differently agree within twice it.
        bound = 2.0 * state.config.scf.tol
        for got, want in zip(records, state.reference):
            check(
                got.scf_converged and got.tddft_converged,
                f"frame {got.index} did not converge",
            )
            de = abs(got.total_energy - want.total_energy)
            dx = float(
                np.max(np.abs(np.subtract(got.excitation_energies, want.excitation_energies)))
            )
            check(
                de <= bound and dx <= bound,
                f"frame {got.index} differs from the one-rank run by "
                f"dE={de:.2e}, dOmega={dx:.2e} (bound {bound:.0e})",
            )
        record.units = len(records)
        record.layer["records"] = records

    def layer_metrics(self, state, records, spans):
        frames = [f for r in records for f in r.layer.get("records", ())]
        computed = [f for f in frames if not f.reused_identical]
        n = max(1, len(computed))
        imbalance, overhead = [], []
        for r, spmd_s in zip(
            [r for r in records if "records" in r.layer], spmd_spans(spans)
        ):
            busy: dict[int, float] = {}
            for f in r.layer["records"]:
                busy[f.rank] = busy.get(f.rank, 0.0) + f.seconds_scf + f.seconds_tddft
            slowest = max(busy.values())
            imbalance.append(slowest / (sum(busy.values()) / len(busy)))
            overhead.append(spmd_s - slowest)
        return {
            "batch.warm_frame_ratio": sum(f.warm for f in computed) / n,
            "batch.isdf_reuse_ratio": sum(not f.isdf_reselected for f in computed) / n,
            "batch.scf_iterations_per_frame": sum(f.scf_iterations for f in computed) / n,
            "batch.casida_iterations_per_frame": sum(
                f.eigensolver_iterations for f in computed
            ) / n,
            "batch.frame_scf_s": sum(f.seconds_scf for f in computed) / n,
            "batch.frame_tddft_s": sum(f.seconds_tddft for f in computed) / n,
            "parallel.rank_imbalance": float(np.mean(imbalance)) if imbalance else 0.0,
            "parallel.overhead_s": float(np.mean(overhead)) if overhead else 0.0,
        }


WORKLOADS = {
    w.name: w
    for w in (Si8TDDFTCold(), Si64ExcitationScan(), ServeMixed(), TrajectoryBatch())
}
