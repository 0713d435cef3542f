"""The shared share-transfer retry loop.

Before this module existed, :class:`Uploader` and :class:`Downloader`
each hard-coded their own ``retry_rounds`` loop: blind re-dispatch, no
backoff, no transient/permanent distinction, no record of what was
tried.  :class:`ShareRetryLoop` centralises the round structure both
pipelines share:

* execute the current round as one batch;
* classify each result (:meth:`_Campaign.classify`, the only copy) —
  transient errors retry the *same* provider until the policy's
  per-provider budget runs out, permanent errors (and exhausted
  providers) fail over to a caller-chosen alternate;
* back off between rounds per the :class:`RetryPolicy` (advancing a
  SimClock exactly, sleeping a wall clock for real);
* record every try as an :class:`repro.errors.Attempt` so exhaustion
  errors can carry the full per-CSP history.

Two drivers feed that classification.  On a serial engine each round
is one ``execute`` call and both retries and failovers wait for the
next round's backoff.  On a concurrent engine
(:class:`repro.core.async_engine.AsyncTransferEngine` with
``parallelism > 1``) the whole campaign runs on the engine's event
loop: the batch's ``on_result`` hook classifies each completion as it
lands and fails a share over *inside the running batch*, so a permanent
error never waits for the round's stragglers; only same-provider
retries defer to the next round.  The hook — and through it the
caller's callbacks — runs on the loop thread, one completion at a time,
so callbacks never race each other.

The callers keep what is genuinely theirs: how to build an op, what a
success means, and where alternate shares may live.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Sequence

from repro.core.transfer import OpResult, TransferEngine, TransferOp
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.errors import Attempt

# An item is one share transfer to drive to completion: (key, csp_id).
# The key identifies the share to the caller (e.g. (chunk_id, index)).
Item = tuple[Hashable, str]

#: Safety valve; the loop's budgets terminate it far earlier.
_MAX_ROUNDS = 1000


class _Campaign:
    """One ``run``'s bookkeeping and its per-result classification."""

    def __init__(self, retry: ShareRetryLoop, items: Sequence[Item],
                 build_op, on_success, on_giveup, pick_alternate, verify):
        self.retry = retry
        self.items = list(items)
        self.build_op = build_op
        self.on_success = on_success
        self.on_giveup = on_giveup
        self.pick_alternate = pick_alternate
        self.verify = verify
        self.results: list[OpResult] = []
        self.attempts: dict[Hashable, list[Attempt]] = {
            key: [] for key, _ in self.items
        }
        self.tried: dict[Hashable, set[str]] = {
            key: {csp} for key, csp in self.items
        }
        self.tries: dict[Item, int] = {}

    def classify(
        self, key: Hashable, csp: str, result: OpResult, round_no: int
    ) -> tuple[OpResult, str | None, bool]:
        """Settle one result: ``(result as classified, next csp or None,
        is_failover)``.

        A payload that fails ``verify`` becomes a *permanent* failure of
        that provider for this item (``ShareIntegrityError``,
        retryable=False): the provider answered, so re-asking it wins
        nothing.  A transient failure retries the same provider while
        its budget lasts and it is live; anything else gives up on the
        provider and fails over to ``pick_alternate``'s choice.
        """
        if result.ok and self.verify is not None \
                and not self.verify(key, csp, result):
            result = dataclasses.replace(
                result, ok=False, data=None,
                error=f"share from {csp} failed verification",
                error_type="ShareIntegrityError", retryable=False,
            )
        self.attempts.setdefault(key, []).append(Attempt(
            csp_id=csp, round_no=round_no, ok=result.ok,
            error=result.error, error_type=result.error_type,
        ))
        if result.ok:
            self.on_success(key, csp, result)
            return result, None, False
        retry = self.retry
        obs = getattr(retry.engine, "obs", None)
        tries = self.tries[(key, csp)] = self.tries.get((key, csp), 0) + 1
        if (result.retryable and not result.cancelled
                and tries < retry.policy.max_attempts
                and retry.alternate_is_live(csp)):
            if obs is not None:
                obs.metrics.inc("cyrus_share_retries_total", csp=csp)
            return result, csp, False
        self.on_giveup(key, csp, result)
        alternate = self.pick_alternate(key, csp, self.tried[key])
        if alternate is None:
            return result, None, False
        if obs is not None:
            obs.metrics.inc("cyrus_share_failovers_total",
                            from_csp=csp, to_csp=alternate)
        self.tried[key].add(alternate)
        return result, alternate, True


class ShareRetryLoop:
    """Round-based batch retry driver shared by upload and download.

    Args:
        engine: Executes each round's batch.
        policy: Backoff and per-provider attempt budget.
        health: Optional shared registry; the loop reports it to
            ``pick_alternate`` callers via :meth:`alternate_is_live` and
            leaves outcome recording to the engine (which sees every
            dispatch, including non-loop ones).
    """

    def __init__(
        self,
        engine: TransferEngine,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
    ):
        self.engine = engine
        self.policy = policy if policy is not None else RetryPolicy()
        self.health = health

    def alternate_is_live(self, csp_id: str) -> bool:
        """Health gate for alternate choice (True without a registry)."""
        return self.health is None or self.health.is_live(csp_id)

    def run(
        self,
        items: Sequence[Item],
        build_op: Callable[[Hashable, str], TransferOp],
        on_success: Callable[[Hashable, str, OpResult], None],
        on_giveup: Callable[[Hashable, str, OpResult], None],
        pick_alternate: Callable[[Hashable, str, set[str]], str | None],
        verify: Callable[[Hashable, str, OpResult], bool] | None = None,
    ) -> tuple[list[OpResult], dict[Hashable, list[Attempt]]]:
        """Drive every item to success or exhaustion.

        Args:
            items: Initial (key, csp) assignments.
            build_op: Materialise the op for one assignment.
            on_success: Called once per item that lands.
            on_giveup: Called when an item abandons a provider (after
                transient retries ran out or a permanent error) — the
                place to mark cloud state; an alternate may still be
                tried afterwards.
            pick_alternate: ``(key, failed_csp, tried) -> csp | None``;
                None drops the item (the caller's threshold check
                decides whether that is fatal).
            verify: Optional payload check on transport-level successes;
                returning False reclassifies the result as a permanent
                provider failure (fail over, never same-provider retry).

        Returns:
            ``(all op results, per-key attempt history)``.
        """
        campaign = _Campaign(self, items, build_op, on_success, on_giveup,
                             pick_alternate, verify)
        if getattr(self.engine, "parallel_enabled", False):
            return self.engine.run_coro(self._stream(campaign))
        pending = list(items)
        for round_no in range(_MAX_ROUNDS):
            if not pending:
                break
            if round_no > 0:
                # all pending items are retries/failovers: back off once
                # per round (batched, like the dispatch itself)
                self.engine.sleep(self.policy.delay(round_no))
            results = self.engine.execute(
                [build_op(key, csp) for key, csp in pending]
            )
            next_pending: list[Item] = []
            for (key, csp), result in zip(pending, results):
                result, nxt, _failover = campaign.classify(
                    key, csp, result, round_no
                )
                campaign.results.append(result)
                if nxt is not None:
                    next_pending.append((key, nxt))
            pending = next_pending
        return campaign.results, campaign.attempts

    async def _stream(
        self, campaign: _Campaign
    ) -> tuple[list[OpResult], dict[Hashable, list[Attempt]]]:
        """The streaming driver: every round is one loop-resident batch
        whose ``on_result`` hook fails shares over in-batch."""
        pending = list(campaign.items)
        for round_no in range(_MAX_ROUNDS):
            if not pending:
                break
            if round_no > 0:
                # all pending items are same-provider transient retries:
                # back off once per round, without blocking the loop
                await self.engine.async_sleep(self.policy.delay(round_no))
            pending = await self._stream_round(campaign, pending, round_no)
        return campaign.results, campaign.attempts

    async def _stream_round(self, campaign: _Campaign,
                            pending: list[Item], round_no: int) -> list[Item]:
        deferred: list[Item] = []
        assign: dict[int, Item] = {}
        # id(op) -> verify-reclassified result, so the results list shows
        # the same failure the callbacks saw
        checked: dict[int, OpResult] = {}

        def launch(key: Hashable, csp: str) -> TransferOp:
            op = campaign.build_op(key, csp)
            assign[id(op)] = (key, csp)
            return op

        def hook(result: OpResult) -> list[TransferOp] | None:
            key, csp = assign.pop(id(result.op))
            verified, nxt, failover = campaign.classify(
                key, csp, result, round_no
            )
            if verified is not result:
                checked[id(result.op)] = verified
            if nxt is None:
                return None
            if not failover:
                deferred.append((key, nxt))
                return None
            return [launch(key, nxt)]

        ops = [launch(key, csp) for key, csp in pending]
        results = await self.engine.execute_async(ops, on_result=hook)
        campaign.results.extend(checked.get(id(r.op), r) for r in results)
        return deferred


class AsyncShareRetryLoop(ShareRetryLoop):
    """Coroutine face of the loop for code already running on the
    engine's event loop (``await loop.run(...)``); same contract as
    :meth:`ShareRetryLoop.run`, always on the streaming driver."""

    async def run(  # type: ignore[override]
        self,
        items: Sequence[Item],
        build_op: Callable[[Hashable, str], TransferOp],
        on_success: Callable[[Hashable, str, OpResult], None],
        on_giveup: Callable[[Hashable, str, OpResult], None],
        pick_alternate: Callable[[Hashable, str, set[str]], str | None],
        verify: Callable[[Hashable, str, OpResult], bool] | None = None,
    ) -> tuple[list[OpResult], dict[Hashable, list[Attempt]]]:
        return await self._stream(_Campaign(
            self, items, build_op, on_success, on_giveup, pick_alternate,
            verify,
        ))
