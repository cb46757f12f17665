"""Self-consistent field driver for the plane-wave KS-DFT substrate.

The loop is the standard PWDFT structure: density guess -> effective
potential -> LOBPCG band solve (warm-started) -> occupations -> new density
-> Anderson mixing -> repeat; a final tight band solve polishes the orbitals.
Bands are real vectors in the packed cos/sin basis
(:meth:`repro.pw.basis.PlaneWaveBasis.pack`), so every band solve runs in
float64 and yields the real orbitals LR-TDDFT requires directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.elements import valence_electron_count
from repro.dft.density import atomic_guess_density, density_from_orbitals
from repro.dft.ewald import ewald_energy
from repro.dft.groundstate import GroundState, realify_orbitals
from repro.dft.hamiltonian import KohnShamHamiltonian
from repro.dft.hartree import hartree_energy
from repro.dft.mixing import AndersonMixer, LinearMixer
from repro.dft.xc import lda_potential, xc_energy
from repro.eigen.lobpcg import lobpcg
from repro.pw.basis import PlaneWaveBasis
from repro.pw.cell import UnitCell
from repro.utils.rng import default_rng
from repro.utils.timers import TimerRegistry
from repro.utils.validation import check_positive, require


@dataclass
class SCFOptions:
    """Knobs of the SCF loop (defaults tuned for the small test systems)."""

    ecut: float = 10.0
    n_bands: int | None = None  #: total bands; default = n_occ + max(4, n_occ//2)
    tol: float = 1e-6  #: density residual convergence (per electron)
    max_iter: int = 60
    mixer: str = "anderson"  #: "anderson" or "linear"
    mixing_beta: float = 0.5
    mixing_history: int = 5
    smearing_width: float = 0.0  #: Fermi-Dirac width in Ha; 0 = integer fill
    eig_tol_final: float = 1e-8
    seed: int | None = None
    verbose: bool = False
    #: Precision tier ("strict64" / "mixed" / "fast32") or a
    #: :class:`repro.precision.PrecisionConfig`.  SCF convergence-critical
    #: algebra stays fp64 in every tier; only ``fast32`` routes the Hartree
    #: solve through fp32 FFT scratch (verified, with permanent fp64
    #: fallback recorded in the resilience log).
    precision: object = "strict64"
    # -- resilience (see repro.resilience.checkpoint) ----------------------
    checkpoint_dir: str | None = None  #: snapshot directory; None = disabled
    checkpoint_every: int = 1  #: snapshot every N-th SCF iteration
    restart: bool = False  #: resume from the newest snapshot when present


@dataclass(frozen=True)
class SCFWarmStart:
    """Initial state carried over from a nearby converged calculation.

    The cross-calculation warm start used by :mod:`repro.batch`: seeding
    the loop with the previous frame's (possibly extrapolated) density and
    converged orbitals skips the atomic-guess/random-coefficient cold start
    and lets Anderson mixing begin inside the convergence basin.

    Attributes
    ----------
    density:
        ``(N_r,)`` starting density (should integrate to the electron
        count; a linear extrapolation of the two previous frames is the
        usual choice for smooth trajectories).
    orbitals_real:
        Optional ``(n_bands, N_r)`` real-gauge orbitals used as the LOBPCG
        starting block (``GroundState.orbitals_real`` of the previous
        frame).  ``None`` falls back to random coefficients.
    residual_hint:
        Estimated initial density residual (per electron).  Sets the first
        iteration's adaptive eigensolver tolerance; without it the first
        band solve runs at the loosest tolerance (1e-3), which floors the
        first measured residual and wastes the quality of a good guess.
    mixer_state:
        Optional ``state_dict`` of the previous run's mixer; carrying the
        Anderson history across frames preserves the built-up quasi-Newton
        curvature information.
    """

    density: np.ndarray
    orbitals_real: np.ndarray | None = None
    residual_hint: float | None = None
    mixer_state: dict | None = None


@dataclass
class SCFResultInfo:
    """Convergence diagnostics of one SCF run."""

    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    total_energies: list[float] = field(default_factory=list)


def _occupations(
    energies: np.ndarray, n_electrons: float, width: float
) -> np.ndarray:
    """Occupation numbers: integer fill, or Fermi-Dirac when ``width > 0``."""
    nb = energies.shape[0]
    if width <= 0.0:
        require(
            abs(n_electrons / 2.0 - round(n_electrons / 2.0)) < 1e-9,
            f"odd electron count {n_electrons} needs smearing_width > 0",
        )
        n_occ = int(round(n_electrons / 2.0))
        require(n_occ <= nb, f"{n_occ} occupied bands but only {nb} computed")
        occ = np.zeros(nb)
        occ[:n_occ] = 2.0
        return occ

    def total(mu: float) -> float:
        x = np.clip((energies - mu) / width, -200.0, 200.0)
        return float((2.0 / (1.0 + np.exp(x))).sum())

    lo, hi = energies.min() - 10.0 * width - 1.0, energies.max() + 10.0 * width + 1.0
    require(total(hi) >= n_electrons - 1e-9, "not enough bands to hold all electrons")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < n_electrons:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    x = np.clip((energies - mu) / width, -200.0, 200.0)
    occ = 2.0 / (1.0 + np.exp(x))
    return occ * (n_electrons / occ.sum())


def _total_energy(
    ham: KohnShamHamiltonian,
    energies: np.ndarray,
    occupations: np.ndarray,
    density: np.ndarray,
    e_ii: float,
) -> float:
    """Harris-Foulkes-style total energy with double-counting corrections."""
    basis = ham.basis
    dv = basis.grid.dv
    e_band = float((occupations * energies).sum())
    e_h = hartree_energy(density, basis)
    e_xc = xc_energy(density, dv)
    e_vxc = float((density * lda_potential(density)).sum() * dv)
    return e_band - e_h - e_vxc + e_xc + e_ii


def run_scf(
    cell: UnitCell,
    options: SCFOptions | None = None,
    *,
    timers: TimerRegistry | None = None,
    checkpoint=None,
    warm_start: SCFWarmStart | None = None,
    progress=None,
    **overrides,
) -> GroundState:
    """Run a Gamma-point SCF and return the converged :class:`GroundState`.

    Keyword overrides are applied on top of ``options``:
    ``run_scf(cell, ecut=8.0, n_bands=12)``.

    ``warm_start`` seeds the loop from a nearby converged calculation (see
    :class:`SCFWarmStart`); a checkpoint restart, when present, takes
    precedence since it resumes *this* run's own state.

    ``progress`` is an optional per-iteration callback receiving
    ``{"iteration": i, "residual": r, "e_total": e, "converged": bool}``
    after each completed SCF iteration — the job server's event stream
    (:mod:`repro.serve.events`) hangs off this hook.  It observes only;
    exceptions propagate (a broken subscriber should fail loudly, not
    corrupt a silent result).

    Checkpoint/restart: pass a
    :class:`~repro.resilience.checkpoint.LoopCheckpointer` (or set
    ``checkpoint_dir`` / ``restart`` in the options) and the loop snapshots
    its full iteration-boundary state — mixed density, orbital
    coefficients, residual, mixer history, diagnostics — after each
    iteration.  A restarted run replays the remaining iterations
    bit-identically to an uninterrupted one.
    """
    opts = options or SCFOptions()
    for key, value in overrides.items():
        require(hasattr(opts, key), f"unknown SCF option {key!r}")
        setattr(opts, key, value)
    check_positive(opts.ecut, "ecut")
    timers = timers or TimerRegistry()

    if checkpoint is None and opts.checkpoint_dir is not None:
        from repro.resilience.checkpoint import CheckpointManager, LoopCheckpointer

        checkpoint = LoopCheckpointer(
            CheckpointManager(opts.checkpoint_dir, tag="scf"),
            every=opts.checkpoint_every,
            restart=opts.restart,
        )

    n_electrons = valence_electron_count(cell.species)
    n_occ = int(np.ceil(n_electrons / 2.0))
    n_bands = opts.n_bands if opts.n_bands is not None else n_occ + max(4, n_occ // 2)
    require(n_bands >= n_occ, f"n_bands={n_bands} < occupied bands {n_occ}")

    basis = PlaneWaveBasis(cell, opts.ecut)
    require(
        n_bands <= basis.n_pw,
        f"n_bands={n_bands} exceeds basis size N_pw={basis.n_pw}; raise ecut",
    )
    ham = KohnShamHamiltonian(basis, precision=opts.precision)
    rng = default_rng(opts.seed)

    mixer = (
        AndersonMixer(opts.mixing_beta, opts.mixing_history)
        if opts.mixer == "anderson"
        else LinearMixer(opts.mixing_beta)
    )
    info = SCFResultInfo(iterations=0, converged=False)
    history: list[dict] = []

    energies = np.zeros(n_bands)
    occupations = np.zeros(n_bands)
    residual = np.inf
    start_iteration = 0

    if warm_start is not None:
        require(
            warm_start.density.shape == (basis.n_r,),
            f"warm-start density must have shape ({basis.n_r},), "
            f"got {warm_start.density.shape}",
        )
        with timers.scope("scf/guess"):
            density = np.array(warm_start.density, dtype=float)
        if warm_start.orbitals_real is not None:
            require(
                warm_start.orbitals_real.shape == (n_bands, basis.n_r),
                f"warm-start orbitals must be ({n_bands}, {basis.n_r}), "
                f"got {warm_start.orbitals_real.shape}",
            )
            coeffs = basis.pack(basis.to_recip(warm_start.orbitals_real))
        else:
            coeffs = basis.random_packed(n_bands, rng)
        if warm_start.residual_hint is not None:
            residual = float(warm_start.residual_hint)
        if warm_start.mixer_state is not None:
            mixer.load_state_dict(warm_start.mixer_state)
    else:
        coeffs = basis.random_packed(n_bands, rng)
        with timers.scope("scf/guess"):
            density = atomic_guess_density(basis)
    e_ii = ewald_energy(cell)

    resumed = checkpoint.resume() if checkpoint is not None else None
    if resumed is not None:
        start_iteration, state = resumed
        density = np.array(state["density"])
        coeffs = np.array(state["coeffs"])
        residual = float(state["residual"])
        mixer.load_state_dict(state["mixer"])
        residuals = [float(v) for v in state["residuals"]]
        energies_hist = [float(v) for v in state["total_energies"]]
        info.residuals = list(residuals)
        info.total_energies = list(energies_hist)
        history = [
            {"iteration": i + 1, "residual": r, "e_total": e}
            for i, (r, e) in enumerate(zip(residuals, energies_hist))
        ]

    for iteration in range(start_iteration + 1, opts.max_iter + 1):
        ham.update_density(density)
        eig_tol = float(np.clip(0.03 * residual, opts.eig_tol_final, 1e-3))
        with timers.scope("scf/bands"):
            result = lobpcg(
                ham.apply_columns,
                coeffs.T,
                preconditioner=ham.preconditioner,
                tol=eig_tol,
                max_iter=100,
            )
        coeffs = result.eigenvectors.T
        energies = result.eigenvalues
        occupations = _occupations(energies, n_electrons, opts.smearing_width)

        psi_real = basis.to_real(basis.unpack(coeffs))
        density_out = density_from_orbitals(psi_real, occupations, basis.grid.dv)
        delta = density_out - density
        residual = float(
            np.sqrt((delta * delta).sum() * basis.grid.dv) / max(n_electrons, 1.0)
        )
        e_total = _total_energy(ham, energies, occupations, density_out, e_ii)
        info.residuals.append(residual)
        info.total_energies.append(e_total)
        history.append(
            {"iteration": iteration, "residual": residual, "e_total": e_total}
        )
        if opts.verbose:  # pragma: no cover - console path
            print(f"SCF {iteration:3d}: residual={residual:.3e}, E={e_total:.8f} Ha")
        if progress is not None:
            progress(
                {
                    "iteration": iteration,
                    "residual": residual,
                    "e_total": e_total,
                    "converged": residual < opts.tol,
                }
            )

        if residual < opts.tol:
            info.converged = True
            info.iterations = iteration
            density = density_out
            break
        with timers.scope("scf/mix"):
            density = mixer.mix(density, density_out)
        if checkpoint is not None:
            checkpoint.save(
                iteration,
                {
                    "density": density,
                    "coeffs": coeffs,
                    "residual": np.float64(residual),
                    "mixer": mixer.state_dict(),
                    "residuals": np.asarray(info.residuals),
                    "total_energies": np.asarray(info.total_energies),
                },
            )
    else:
        info.iterations = opts.max_iter

    # Final polish with the converged potential.
    ham.update_density(density)
    with timers.scope("scf/polish"):
        result = lobpcg(
            ham.apply_columns,
            coeffs.T,
            preconditioner=ham.preconditioner,
            tol=opts.eig_tol_final,
            max_iter=200,
        )
    coeffs = result.eigenvectors.T
    energies = result.eigenvalues
    occupations = _occupations(energies, n_electrons, opts.smearing_width)
    orbitals_real = realify_orbitals(coeffs, basis)
    density = density_from_orbitals(orbitals_real, occupations, basis.grid.dv)
    e_total = _total_energy(ham, energies, occupations, density, e_ii)

    return GroundState(
        basis=basis,
        energies=energies,
        orbitals_real=orbitals_real,
        occupations=occupations,
        density=density,
        total_energy=e_total,
        converged=info.converged,
        history=history,
    )
