"""Pipeline execution: ordered passes + per-pass caching + timings.

Running a pipeline walks its passes in order.  For every pass the
cache key is computed (pass signature, input fingerprints, code
version); cacheable passes resolve through a :class:`PassCache` —
shared process-globally by default, and computing each key once even
when job threads miss on it together — and every pass execution or
hit is timed into the state's
:class:`~repro.pipeline.state.PassTiming` log, which the CLI renders
under ``--timings``.

Output fingerprints are derived whether or not the pass is cacheable,
so downstream cacheable passes key identically across pipeline runs
even when an upstream uncacheable pass (e.g. a warm-started WLO
search) re-ran.  A ``spec`` or ``groups`` output is fingerprinted by
its content, every other output by the pass key
(:func:`~repro.pipeline.cache.derived_fingerprint`): searches at two
constraints that reach the same spec and groups then share SLP
extraction, lowering and scheduling.
"""

from __future__ import annotations

import time

from repro.errors import FlowError
from repro.pipeline.cache import (
    PassCache,
    derived_fingerprint,
    global_pass_cache,
    pass_key,
)
from repro.pipeline.passes import Pass, check_pass_list
from repro.pipeline.state import FlowState, PassTiming

__all__ = ["Pipeline"]


class Pipeline:
    """An ordered, validated list of passes.

    ``has_constraint`` states whether a ``constraint_db`` seed artifact
    will exist at run time (see
    :attr:`~repro.pipeline.registry.FlowSpec.needs_constraint`).
    """

    def __init__(
        self,
        passes: tuple[Pass, ...] | list[Pass],
        has_constraint: bool = True,
    ) -> None:
        self.passes = tuple(passes)
        check_pass_list(self.passes, has_constraint)

    def pass_names(self) -> list[str]:
        """The resolved structure: every pass signature, in order."""
        return [pass_.signature() for pass_ in self.passes]

    # ------------------------------------------------------------------
    def run(self, state: FlowState, cache: PassCache | None = None) -> FlowState:
        """Execute every pass against ``state``; returns the state."""
        cache = cache if cache is not None else global_pass_cache()
        for pass_ in self.passes:
            self._run_pass(pass_, state, cache)
        return state

    def _run_pass(self, pass_: Pass, state: FlowState, cache: PassCache) -> None:
        started = time.perf_counter()
        key = pass_key(pass_, state)
        if pass_.cacheable:
            outputs, cached = cache.resolve(
                pass_.name, key, lambda: self._execute(pass_, state)
            )
        else:
            cache.count_execution(pass_.name)
            outputs, cached = self._execute(pass_, state), False
        for name in pass_.writes:
            value = outputs[name]
            state.put(name, value, derived_fingerprint(name, value, key))
        state.timings.append(PassTiming(
            pass_.signature(), time.perf_counter() - started, cached
        ))

    @staticmethod
    def _execute(pass_: Pass, state: FlowState) -> dict:
        outputs = pass_.run(state)
        if set(outputs) != set(pass_.writes):
            raise FlowError(
                f"pass {pass_.signature()!r} wrote {sorted(outputs)}, "
                f"declared {sorted(pass_.writes)}"
            )
        return outputs
