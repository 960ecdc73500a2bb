"""Offline export, standalone verification, and rebuild-from-truth.

Three cooperating modules (DESIGN.md §17):

* :mod:`repro.export.bundle` — the checksummed single-file container and
  the :func:`export_bundle` writer (kernel-free module; the writer takes a
  live ledger object);
* :mod:`repro.export.verifier` — :func:`verify_bundle`, which re-runs
  what/when/who + STH consistency over a bundle with **no** ledger kernel,
  service, or network imports;
* :mod:`repro.export.rebuild` — :func:`rebuild_from_bundle` /
  :func:`rebuild_from_stream`, reconstructing a full deployment and
  cross-checking it, divergences reported as findings.

``import repro.export`` stays standalone-safe: :mod:`repro.export.rebuild`
(which legitimately imports the kernel) is **not** imported here — reach it
as ``repro.export.rebuild`` explicitly.
"""

from .bundle import (
    BundleCertificate,
    BundleCorruptionError,
    BundleEntry,
    BundleError,
    ClueSection,
    ExportBundle,
    ShardSection,
    export_bundle,
)
from .verifier import verify_bundle, verify_bundle_path

__all__ = [
    "BundleCertificate",
    "BundleCorruptionError",
    "BundleEntry",
    "BundleError",
    "ClueSection",
    "ExportBundle",
    "ShardSection",
    "export_bundle",
    "verify_bundle",
    "verify_bundle_path",
]
