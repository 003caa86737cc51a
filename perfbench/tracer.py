"""Call counts and span times for pufledger, recorded from outside the package.

A function is wrapped at every place it is looked up, not only where it is
defined: each pufledger module that binds the same function object, under
any name, gets the wrapper. Several modules import functions by name
(`harness` calls `enroll`, `registry` calls `screen_challenge`, `fom` calls
`evaluate`, `consensus` calls `make_auth_tag`, `make_entry`, `append` and
`sha256` through their own bindings), so a wrapper on the defining module
alone would miss those calls without any sign.

Spans are aggregated as they close; nothing is kept per call except the
durations of the functions listed in SAMPLED. A span's self time is its
duration minus the time covered by the timed spans directly inside it.
"""

from __future__ import annotations

import time

import pufledger
from pufledger import cli, consensus, fom, harness, ledger, netsim, puf, registry

MODULES = (pufledger, puf, fom, registry, ledger, consensus, netsim, harness, cli)

COUNTED = "counted"  # call count only: for functions called about a million times
TIMED = "timed"      # call count, total time and self time
SAMPLED = "sampled"  # as TIMED, plus every call's duration for percentiles

# (owner, attribute, span name, kind, per-result measure summed over calls)
SPANS = (
    (puf, "manufacture", "puf.manufacture", TIMED, None),
    (puf, "random_challenge", "puf.random_challenge", TIMED, None),
    (puf, "evaluate", "puf.evaluate", TIMED, None),
    (puf, "reference_response", "puf.reference_response", TIMED, None),
    (puf.Response, "packed", "puf.Response.packed", COUNTED, None),
    (fom, "screen_challenge", "fom.screen_challenge", TIMED, lambda r: int(r.accepted)),
    (fom, "reliability", "fom.reliability", TIMED, None),
    (fom, "uniqueness", "fom.uniqueness", TIMED, None),
    (fom, "mean_abs_correlation", "fom.mean_abs_correlation", TIMED, None),
    (registry, "enroll", "registry.enroll", TIMED, lambda r: len(r.pairs)),
    (registry, "lookup", "registry.lookup", COUNTED, None),
    (consensus, "initiate", "consensus.initiate", TIMED, None),
    (consensus, "authenticate", "consensus.authenticate", SAMPLED, lambda r: r.hashes_tried),
    (consensus, "accept_validated", "consensus.accept_validated", SAMPLED,
     lambda r: r.hashes_tried),
    (ledger, "sha256", "ledger.sha256", COUNTED, None),
    (ledger, "make_auth_tag", "ledger.make_auth_tag", TIMED, None),
    (ledger, "make_entry", "ledger.make_entry", COUNTED, None),
    (ledger, "append", "ledger.append", TIMED, None),
    (ledger, "save_chain", "ledger.save_chain", TIMED, None),
    (ledger, "verify_chain_file", "ledger.verify_chain_file", TIMED, None),
    (netsim, "run", "netsim.run", TIMED, None),
    (netsim, "save_events", "netsim.save_events", TIMED, None),
    (harness, "run_scenario", "harness.run_scenario", TIMED, None),
    (harness, "build_world", "harness.build_world", TIMED, None),
    (harness, "build_metrics", "harness.build_metrics", TIMED, None),
    (harness, "run_fom_calibration", "harness.run_fom_calibration", TIMED, None),
)


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "measure", "samples")

    def __init__(self, sampled: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.measure = 0
        self.samples: list[float] | None = [] if sampled else None


class Tracer:
    """Wraps the named spans while installed; `with Tracer(names) as t:`."""

    def __init__(self, names: tuple[str, ...] | None = None) -> None:
        self.specs = [s for s in SPANS if names is None or s[2] in names]
        if names is not None and len(self.specs) != len(names):
            unknown = set(names) - {s[2] for s in self.specs}
            raise ValueError(f"unknown span names: {sorted(unknown)}")
        self.stats = {s[2]: Stat(s[3] == SAMPLED) for s in self.specs}
        self._open: list[float] = []  # time covered by timed children, per open span
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, kind, measure in self.specs:
                original = getattr(owner, attr)
                if kind == COUNTED:
                    wrapper = self._counted(self.stats[name], original)
                else:
                    wrapper = self._timed(self.stats[name], original, measure)
                self._install(owner, attr, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self, owner, attr: str, original, wrapper) -> None:
        for target in [owner] if isinstance(owner, type) else MODULES:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, original))
                    setattr(target, key, wrapper)

    def _restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    @staticmethod
    def _counted(stat: Stat, fn):
        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, stat: Stat, fn, measure):
        open_spans = self._open
        clock = time.perf_counter
        samples = stat.samples

        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                if samples is not None:
                    samples.append(elapsed)
            if measure is not None:
                stat.measure += measure(result)
            return result
        return timed
