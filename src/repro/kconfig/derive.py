"""Trace-driven configuration derivation: observed usage -> kernel config.

The paper derives per-app configurations manually from error messages
(Section 4.1); Loupe (PAPERS.md) showed the measured route scales.  This
module closes that loop inside the simulation: a
:class:`~repro.syscall.usage.UsageTrace` recorded off a running guest is
turned into an option-requirement set and resolved into a concrete
configuration, warm from the shared ``lupine-base`` fixpoint
(:meth:`Resolver.resolve_from` re-resolves only the cone reachable from
the extras -- each candidate is cheap per ``BENCH_resolve.json``), then
pruned ``savedefconfig``-style by :mod:`repro.kconfig.minimize`.

Determinism contract: every artifact here is a pure function of the
usage *set* (never of call order, counts beyond zero/nonzero, or process
layout).  Requirement sets fold sorted, so derived request lists,
resolved configs and digests are byte-identical across reruns -- the
property ``bench-derive`` pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.optionset import implied_options
from repro.kconfig.configs import lupine_base_config
from repro.kconfig.database import base_option_names, build_linux_tree
from repro.kconfig.minimize import minimize_config
from repro.kconfig.model import KconfigTree
from repro.kconfig.resolver import ResolvedConfig, Resolver
from repro.syscall.table import available_syscalls
from repro.syscall.usage import UsageTrace


def usage_option_requirements(trace: UsageTrace) -> FrozenSet[str]:
    """Options atop lupine-base the observed usage implies.

    Exercised syscalls and touched facilities map through the shared
    helper in :mod:`repro.core.optionset`; observed ENOSYS misses
    contribute the option whose absence caused them -- the paper's
    "derive the config from the error message" route, automated.
    """
    return (
        implied_options(trace.syscalls, sorted(trace.facilities))
        | trace.missing_options
    )


def derived_config_names(trace: UsageTrace) -> List[str]:
    """The full requested-option list for a trace-derived kernel."""
    return base_option_names() + sorted(usage_option_requirements(trace))


def derive_config(
    trace: UsageTrace,
    tree: Optional[KconfigTree] = None,
    name: Optional[str] = None,
) -> ResolvedConfig:
    """Resolve the trace-derived configuration, warm from lupine-base."""
    if tree is None:
        tree = build_linux_tree()
    label = name or (
        f"lupine-derived-{trace.owner}" if trace.owner else "lupine-derived"
    )
    return Resolver(tree).resolve_names_from(
        lupine_base_config(tree), derived_config_names(trace), name=label
    )


def covers_usage(config: ResolvedConfig, trace: UsageTrace) -> bool:
    """Does *config* support everything the trace observed?

    Every observed syscall must dispatch (no ENOSYS), and every implied
    option -- including those behind observed misses and touched
    facilities -- must be enabled.
    """
    if not trace.syscalls <= available_syscalls(config.enabled):
        return False
    return usage_option_requirements(trace) <= config.enabled


def config_digest(config: ResolvedConfig) -> str:
    """sha256 over the sorted enabled set (label-independent).

    Two resolutions reaching the same enabled set digest identically, so
    the rerun determinism gate compares config *content*.
    """
    payload = json.dumps(sorted(config.enabled), separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class DerivationReport:
    """One app's trip through the derivation pipeline."""

    app: str
    usage_digest: str
    extras: Tuple[str, ...]  # implied options atop lupine-base, sorted
    request: Tuple[str, ...]  # minimized request reproducing the config
    option_count: int  # enabled options in the derived config
    covers: bool  # derived config supports all observed usage
    config_digest: str


def derivation_report(
    trace: UsageTrace, tree: Optional[KconfigTree] = None
) -> DerivationReport:
    """Derive, minimize and audit one usage trace."""
    if tree is None:
        tree = build_linux_tree()
    config = derive_config(trace, tree)
    return DerivationReport(
        app=trace.owner,
        usage_digest=trace.digest(),
        extras=tuple(sorted(usage_option_requirements(trace))),
        request=tuple(sorted(minimize_config(config))),
        option_count=len(config.enabled),
        covers=covers_usage(config, trace),
        config_digest=config_digest(config),
    )
