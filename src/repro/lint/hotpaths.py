"""The hot-path manifest: which functions must stay allocation-free.

Two ways a function enters the ``no-alloc-in-hot`` scope:

* decorate it with :func:`repro.utils.hot.hot_kernel` (self-documenting,
  preferred for new code), or
* list its qualified name here against its module path (used for the
  seed-era kernels whose modules predate the decorator).

The manifest keys are posix path *suffixes*, so the same table works for
``src/repro/...`` checkouts and installed trees.
"""

from __future__ import annotations

__all__ = [
    "HOT_DECORATORS",
    "HOT_PATH_MANIFEST",
    "hot_functions_for",
]

#: Decorator names that mark a function as a hot kernel.
HOT_DECORATORS = frozenset({"hot_kernel"})

#: module-path suffix -> qualified function names under allocation discipline.
HOT_PATH_MANIFEST: dict[str, frozenset[str]] = {
    # ``scratch`` is the per-thread staging pool behind
    # ``PlaneWaveBasis.to_real``.  Reviewed 2026-08: the f_Hxc Coulomb apply ("fhxc/coulomb_fft") runs
    # through convolve_real, whose transform *outputs* are allocated by
    # pocketfft itself — numpy/scipy expose no ``out=`` for rfftn/irfftn,
    # so the ~2 x batch x N_r spectrum+result allocation per apply cannot
    # be eliminated through any public API.  Everything avoidable has
    # been hoisted: the kernel and its half-spectrum slice are built once
    # per (grid, kernel) in the PlanCache, and the scratch pool reuses
    # input staging buffers.  The Parseval Gram holds no whole spectrum:
    # ``block_gram`` allocates one k3-slab's z-transform per pass in
    # ``_BlockLines.transform`` (the z-transform GEMM writes into it; the
    # exchange's spectrum, ``fft2`` and the scale then work on one array in
    # place), which it drops before the next, and its m x m result.  The
    # manifest entries keep the rule
    # watching so any *new* per-call allocation added here is flagged.
    "repro/pw/fft.py": frozenset(
        {
            "scratch",
            "FourierGrid.convolve_real",
            "ConvolutionPlan.apply",
            "ConvolutionPlan.gram",
            "ConvolutionPlan.block_gram",
            "_BlockLines.transform",
        }
    ),
    "repro/core/isdf.py": frozenset(
        {"ISDFDecomposition.apply_c", "ISDFDecomposition.apply_ct"}
    ),
    "repro/parallel/pipeline.py": frozenset({"pipelined_vhxc_rows"}),
    "repro/eigen/lobpcg.py": frozenset({"lobpcg"}),
    # Shared-memory transport of the process SPMD backend: the per-epoch
    # publish/decode path every collective crosses.
    "repro/parallel/shm.py": frozenset(
        {"SharedSlab.view", "SharedSlab.write", "SlabArena.write_array"}
    ),
    "repro/parallel/process_backend.py": frozenset(
        {
            "ProcessCommunicator._publish",
            "ProcessCommunicator._peer_descriptor",
            "ProcessCommunicator._materialize",
        }
    ),
}


def hot_functions_for(posix_path: str) -> frozenset[str]:
    """Manifest entries applying to ``posix_path`` (empty set if none)."""
    for suffix, names in HOT_PATH_MANIFEST.items():
        if posix_path.endswith(suffix):
            return names
    return frozenset()
