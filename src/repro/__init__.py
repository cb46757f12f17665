"""repro — reproduction of "Accelerating Parallel First-Principles
Excited-State Calculation by Low-Rank Approximation with K-Means
Clustering" (ICPP 2022).

Layers (bottom up):

* :mod:`repro.pw`, :mod:`repro.atoms`, :mod:`repro.pseudo` — plane-wave
  discretization, structures, HGH pseudopotentials,
* :mod:`repro.dft` — the Kohn-Sham ground-state substrate (PWDFT's role),
* :mod:`repro.eigen` — LOBPCG / Davidson / dense eigensolvers,
* :mod:`repro.core` — the paper's contribution: ISDF with K-Means point
  selection and the implicit LR-TDDFT Hamiltonian (Table 4 versions 1-5),
* :mod:`repro.parallel` — SPMD runtime + the paper's distributed
  algorithms (Algorithm 1, pipelined GEMM+Reduce),
* :mod:`repro.perf` — Cori-calibrated cost model for the scaling figures,
* :mod:`repro.analysis`, :mod:`repro.data` — DOS/accuracy post-processing
  and the paper's reported numbers.

Quick start (one typed request — see :mod:`repro.api` and ``docs/api.md``)::

    from repro import api, silicon_primitive_cell

    request = api.CalculationRequest(
        kind="tddft",
        structure=silicon_primitive_cell(),
        scf=api.SCFConfig(ecut=10.0, n_bands=10),
        tddft=api.TDDFTConfig(n_excitations=5),
    )
    result = request.compute()
    print(result.energies)
"""

from repro import api
from repro.atoms import (
    bulk_silicon,
    graphene_bilayer,
    silicon_primitive_cell,
    twisted_bilayer_graphene,
    water_molecule,
)
from repro.core import LRTDDFTResult, LRTDDFTSolver, isdf_decompose
from repro.dft import GroundState, run_scf
from repro.pw import PlaneWaveBasis, UnitCell
from repro.synthetic import synthetic_ground_state

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "api",
    "UnitCell",
    "PlaneWaveBasis",
    "run_scf",
    "GroundState",
    "LRTDDFTSolver",
    "LRTDDFTResult",
    "isdf_decompose",
    "synthetic_ground_state",
    "silicon_primitive_cell",
    "bulk_silicon",
    "water_molecule",
    "graphene_bilayer",
    "twisted_bilayer_graphene",
]
