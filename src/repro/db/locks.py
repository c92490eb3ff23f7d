"""Strict two-phase-locking lock table with FIFO wait queues.

The paper's motivation for non-blocking commit protocols is that a blocked
transaction "cannot relinquish the locks acquired ... rendering those data
inaccessible to other transactions".  The lock manager makes that cost
measurable twice over:

* the availability experiment (bench ``AVAIL``) counts how long keys stay
  locked under each protocol when a partition strikes;
* the concurrent-transaction scheduler (:mod:`repro.txn`) *queues*
  conflicting requests (:meth:`LockManager.request`) instead of failing
  them, so contended workloads measure the queueing delay a blocked lock
  holder inflicts on everyone behind it.

Queueing invariants:

* **FIFO, no barging.**  A request that conflicts with the current holders
  -- or that arrives while *any* request is queued on the key -- waits in
  arrival order.  Compatible requests at the head of the queue are granted
  together (a shared group), so readers batch but can never overtake an
  older writer.
* **Upgrades jump the queue.**  A shared holder upgrading to exclusive
  waits only for the other current holders, never behind queued newcomers
  (queued-first upgrades would deadlock against their own queue position).
* **Release wakes the queue.**  Releasing locks promotes now-grantable
  requests in FIFO order and reports each grant through
  :attr:`LockManager.on_grant`, which is how the transaction scheduler
  resumes waiting transactions.
* **Release-while-queued.**  Releasing an owner also cancels its queued
  requests, and both release and cancel are idempotent (double release is a
  no-op), so an aborting transaction can always be cleaned up blindly.

Besides the per-key grant lists and queues the table keeps two owner
indexes -- ``owner -> held keys`` and ``owner -> queued requests`` -- so the
per-owner questions on the scheduler's hot path cost the owner's own locks
and requests, not a scan of every grant list and queue at the site:

* "what does this terminating owner hold, and which queues does it sit
  in?" (:meth:`LockManager.release_all`, :meth:`LockManager.held_count`);
* "whom is this owner waiting for?" (:meth:`LockManager.waits_of`, the
  deadlock detector's per-node view of :meth:`LockManager.waits_for`);
* "is anyone waiting for this owner?" (:meth:`LockManager.is_waited_on`,
  the detector's pre-filter: no in-edge, no cycle through the owner).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Optional


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) lock."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def compatible_with(self, other: "LockMode") -> bool:
        """Lock compatibility matrix: only shared/shared is compatible."""
        return self is LockMode.SHARED and other is LockMode.SHARED

    def covers(self, other: "LockMode") -> bool:
        """True when holding this mode already satisfies a request for ``other``."""
        return self is other or self is LockMode.EXCLUSIVE


class LockConflict(RuntimeError):
    """Raised when a lock request conflicts with an existing holder."""

    def __init__(self, key: str, requester: str, holder: str) -> None:
        super().__init__(f"lock on {key!r} requested by {requester} held by {holder}")
        self.key = key
        self.requester = requester
        self.holder = holder


@dataclass
class LockGrant:
    """A granted lock."""

    key: str
    owner: str
    mode: LockMode
    granted_at: float


@dataclass
class LockRequest:
    """A lock request, either granted immediately or waiting in a key's queue."""

    key: str
    owner: str
    mode: LockMode
    enqueued_at: float
    upgrade: bool = False
    granted: Optional[LockGrant] = None
    granted_at: Optional[float] = None
    cancelled: bool = False

    @property
    def pending(self) -> bool:
        """True while the request is queued (neither granted nor cancelled)."""
        return self.granted is None and not self.cancelled

    @property
    def wait_time(self) -> float:
        """Queueing delay this request experienced (0 for immediate grants)."""
        if self.granted_at is None:
            return 0.0
        return max(0.0, self.granted_at - self.enqueued_at)


@dataclass
class LockStats:
    """Aggregate lock-contention statistics for one site."""

    grants: int = 0
    conflicts: int = 0
    releases: int = 0
    queued: int = 0
    wait_time_total: float = 0.0
    total_hold_time: float = 0.0
    held_since: dict[tuple[str, str], float] = field(default_factory=dict)


_NO_WAITS: AbstractSet[str] = frozenset()


class LockManager:
    """Per-site lock table with strict 2PL semantics.

    Locks are requested by transaction id and released only when the
    transaction terminates (commit or abort).  Upgrades from shared to
    exclusive by the same owner are allowed when no other owner holds the
    lock.  Two acquisition surfaces share the table:

    * :meth:`acquire` / :meth:`try_acquire` -- the fail-fast API used by the
      single-transaction protocol path (raises :class:`LockConflict`);
    * :meth:`request` -- the queueing API used by the concurrent-transaction
      scheduler (enqueues and later grants via :attr:`on_grant`).
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self._locks: dict[str, list[LockGrant]] = {}
        #: key -> creation serial of its entry in ``_locks``, so a subset of
        #: keys can be put in ``_locks`` order without scanning it.
        self._lock_serial: dict[str, int] = {}
        self._next_serial = 0
        #: owner -> {key: its grant on that key}, in step with ``_locks``
        #: (one grant per owner and key; upgrades replace it in both).  The
        #: crash path (:meth:`cancel_all_pending`) leaves grants alone: the
        #: site replaces the whole table.
        self._held_by_owner: dict[str, dict[str, LockGrant]] = {}
        self._queues: dict[str, list[LockRequest]] = {}
        #: owner -> the requests it has queued, in request order.  Filled by
        #: :meth:`request`, dropped whole by :meth:`release_all` and
        #: :meth:`cancel_all_pending`.  Entries a promotion has since granted
        #: stay until then, so readers skip whatever is no longer pending.
        self._queued_by_owner: dict[str, list[LockRequest]] = {}
        self.stats = LockStats()
        #: Callback invoked (synchronously) for every queued request that a
        #: release promotes to granted.  Set by the transaction scheduler.
        self.on_grant: Optional[Callable[[LockRequest], None]] = None

    # ------------------------------------------------------------------
    # fail-fast acquisition (single-transaction protocol path)
    # ------------------------------------------------------------------
    def acquire(
        self, owner: str, key: str, mode: LockMode, *, now: float = 0.0
    ) -> LockGrant:
        """Grant ``owner`` a lock on ``key`` or raise :class:`LockConflict`."""
        held = self._grant_of(owner, key)
        if held is not None:
            if held.mode.covers(mode):
                return held
            blockers = self._upgrade_blockers(owner, key)
            if not blockers:
                return self._upgrade(held, now=now)
            self.stats.conflicts += 1
            raise LockConflict(key, owner, blockers[0])
        blockers = self._blockers(owner, key, mode)
        if blockers:
            self.stats.conflicts += 1
            raise LockConflict(key, owner, blockers[0])
        return self._grant(owner, key, mode, now=now)

    def try_acquire(
        self, owner: str, key: str, mode: LockMode, *, now: float = 0.0
    ) -> Optional[LockGrant]:
        """Like :meth:`acquire` but returns ``None`` instead of raising."""
        try:
            return self.acquire(owner, key, mode, now=now)
        except LockConflict:
            return None

    # ------------------------------------------------------------------
    # queueing acquisition (concurrent-transaction scheduler path)
    # ------------------------------------------------------------------
    def request(
        self, owner: str, key: str, mode: LockMode, *, now: float = 0.0
    ) -> LockRequest:
        """Request a lock, queueing FIFO on conflict instead of raising.

        Returns a :class:`LockRequest`; ``request.granted`` is set when the
        lock was granted immediately, otherwise the request waits in the
        key's queue and is granted later by a release (reported through
        :attr:`on_grant`).
        """
        held = self._grant_of(owner, key)
        if held is not None:
            request = LockRequest(key=key, owner=owner, mode=mode, enqueued_at=now)
            if held.mode.covers(mode):
                request.granted = held
                request.granted_at = now
                return request
            request.upgrade = True
            if not self._upgrade_blockers(owner, key):
                request.granted = self._upgrade(held, now=now)
                request.granted_at = now
                return request
            # Upgrades wait only for the other holders: insert ahead of
            # ordinary queued requests, behind earlier pending upgrades.
            # Compact settled entries first -- a cancelled entry between two
            # pending upgrades would otherwise skew the insertion index.
            self.stats.conflicts += 1
            self.stats.queued += 1
            queue = self._queues.setdefault(key, [])
            queue[:] = [r for r in queue if r.pending]
            position = sum(1 for r in queue if r.upgrade)
            queue.insert(position, request)
            self._queued_by_owner.setdefault(owner, []).append(request)
            return request
        request = LockRequest(key=key, owner=owner, mode=mode, enqueued_at=now)
        if not self._blockers(owner, key, mode):
            request.granted = self._grant(owner, key, mode, now=now)
            request.granted_at = now
            return request
        self.stats.conflicts += 1
        self.stats.queued += 1
        self._queues.setdefault(key, []).append(request)
        self._queued_by_owner.setdefault(owner, []).append(request)
        return request

    def cancel(self, request: LockRequest, *, now: float = 0.0) -> None:
        """Withdraw a queued request (no-op if already granted or cancelled)."""
        if not request.pending:
            return
        request.cancelled = True
        self._forget_settled(request.owner)
        self._promote(request.key, now=now)

    def cancel_all_pending(self) -> int:
        """Flag every queued request cancelled *without* promoting anyone.

        The crash path: the lock table is about to be discarded, so waking
        waiters on it would grant locks that die with the site.  Waiters
        observe the cancellation through ``request.cancelled``.
        """
        cancelled = 0
        for queue in self._queues.values():
            for request in queue:
                if request.pending:
                    request.cancelled = True
                    cancelled += 1
        self._queues.clear()
        self._queued_by_owner.clear()
        return cancelled

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release(self, owner: str, key: str, *, now: float = 0.0) -> bool:
        """Release ``owner``'s lock on ``key`` (False if none was held).

        Releasing a key the owner does not hold -- including a second
        release of the same key -- is a safe no-op, so termination paths
        can release blindly.  Queued requests of ``owner`` on the key are
        cancelled (release-while-queued), and the queue is promoted.
        """
        held = self._held_by_owner.get(owner)
        grant = None if held is None else held.pop(key, None)
        if grant is not None:
            if not held:
                del self._held_by_owner[owner]
            self._account_release(owner, key, now=now)
            self._drop_grant(grant)
        for request in self._queued_by_owner.get(owner, ()):
            if request.pending and request.key == key:
                request.cancelled = True
        self._forget_settled(owner)
        self._promote(key, now=now)
        return grant is not None

    def release_all(self, owner: str, *, now: float = 0.0) -> int:
        """Release every lock held by ``owner``; returns the number released.

        Also cancels the owner's queued requests and promotes every
        affected queue, so a terminating transaction frees both the locks
        it held and the queue slots it occupied in one call.  Only the
        owner's own keys are visited (the held index), in ``_locks`` order
        -- the order a scan of the table would release and promote them.
        """
        held = self._held_by_owner.pop(owner, {})
        affected = sorted(held, key=self._lock_serial.__getitem__)
        for key in affected:
            self._account_release(owner, key, now=now)
            self._drop_grant(held[key])
        released = len(affected)
        queued = self._queued_by_owner.pop(owner, ())
        if not self._queues:
            # Nothing queued anywhere (the single-transaction sweep case):
            # no requests to cancel and no promotions possible.
            return released
        vacated: set[str] = set()
        for request in queued:
            if request.pending:
                request.cancelled = True
                vacated.add(request.key)
        vacated.difference_update(affected)
        if vacated:
            # Queues the owner only waited in promote after the keys it
            # held, in queue-creation order -- the order ``on_grant``
            # observers have always seen.
            affected.extend(key for key in self._queues if key in vacated)
        for key in affected:
            self._promote(key, now=now)
        return released

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holders(self, key: str) -> tuple[LockGrant, ...]:
        """Current holders of ``key``."""
        return tuple(self._locks.get(key, ()))

    def holds(self, owner: str, key: str) -> bool:
        """True when ``owner`` holds any lock on ``key``."""
        return key in self._held_by_owner.get(owner, ())

    def locked_keys(self) -> list[str]:
        """Keys with at least one holder, sorted."""
        return sorted(self._locks)

    def owners(self) -> set[str]:
        """Transaction ids currently holding at least one lock."""
        return set(self._held_by_owner)

    def held_count(self, owner: str) -> int:
        """Number of locks ``owner`` currently holds at this site."""
        return len(self._held_by_owner.get(owner, ()))

    def queued(self, key: str) -> tuple[LockRequest, ...]:
        """Pending requests waiting on ``key``, in grant order."""
        return tuple(r for r in self._queues.get(key, ()) if r.pending)

    def queued_keys(self) -> list[str]:
        """Keys with at least one pending queued request, sorted."""
        return sorted(
            key
            for key, queue in self._queues.items()
            if any(request.pending for request in queue)
        )

    def pending_owners(self) -> set[str]:
        """Transaction ids with at least one queued request."""
        return {
            request.owner
            for queue in self._queues.values()
            for request in queue
            if request.pending
        }

    def waits_for(self) -> dict[str, set[str]]:
        """The site's waits-for edges: queued owner -> owners it waits on.

        A queued request waits for every *other* current holder it
        conflicts with and for every *incompatible* owner queued ahead of
        it (FIFO: the earlier request will be granted first, and the later
        one must then outwait it).  Compatible queued neighbours (a shared
        group) promote together, so no edge joins them -- a spurious edge
        there would let the deadlock detector abort an innocent member of
        the group.  Upgrades wait only for the other holders.  The union
        of these maps across sites is the graph the deadlock detector
        searches for cycles; :meth:`waits_of` gives one owner's entry
        without building the map.
        """
        edges: dict[str, set[str]] = {}
        for key in sorted(self._queues):
            holders = self._locks.get(key, ())
            ahead: list[LockRequest] = []
            for request in self._queues[key]:
                if not request.pending:
                    continue
                waits = edges.setdefault(request.owner, set())
                for grant in holders:
                    if grant.owner != request.owner and not grant.mode.compatible_with(
                        request.mode
                    ):
                        waits.add(grant.owner)
                if not request.upgrade:
                    for earlier in ahead:
                        if earlier.owner != request.owner and not (
                            earlier.mode.compatible_with(request.mode)
                        ):
                            waits.add(earlier.owner)
                ahead.append(request)
        return edges

    def waits_of(self, owner: str) -> AbstractSet[str]:
        """The owners ``owner`` waits on here: ``waits_for().get(owner, set())``.

        Computed from the owner's own queued requests (the owner index)
        instead of from every queue at the site, which is what lets the
        deadlock detector walk only the part of the waits-for graph a new
        waiter can reach.  The edge rules are those of :meth:`waits_for`,
        restated rather than shared on purpose: ``waits_for`` stays the
        independent reference, and the property tests hold the two equal.
        """
        queued = self._queued_by_owner.get(owner)
        if queued is None:
            # The detector asks every site about every transaction it
            # visits; most are queued at one site only.
            return _NO_WAITS
        waits: set[str] = set()
        for request in queued:
            if not request.pending:
                continue
            # Only shared/shared is compatible (LockMode.compatible_with).
            exclusive = request.mode is LockMode.EXCLUSIVE
            for grant in self._locks.get(request.key, ()):
                if grant.owner != owner and (
                    exclusive or grant.mode is LockMode.EXCLUSIVE
                ):
                    waits.add(grant.owner)
            if request.upgrade:
                continue
            for earlier in self._queues[request.key]:
                if earlier is request:
                    break
                if (
                    earlier.owner != owner
                    and (exclusive or earlier.mode is LockMode.EXCLUSIVE)
                    and earlier.pending
                ):
                    waits.add(earlier.owner)
        return waits

    def is_waited_on(self, owner: str) -> bool:
        """True when some owner waits on ``owner`` here, i.e. ``owner`` is in
        some value of :meth:`waits_for`.

        Decided from the owner's own grants and queued requests (the two
        owner indexes) with the edge rules of :meth:`waits_for`: a pending
        request of another owner that conflicts with a lock ``owner`` holds,
        or a pending non-upgrade request of another owner that is queued
        behind one of ``owner``'s and incompatible with it.  The deadlock
        detector's pre-filter: no in-edge anywhere, no cycle through
        ``owner``.
        """
        held = self._held_by_owner.get(owner)
        if held is not None:
            for key, grant in held.items():
                queue = self._queues.get(key)
                if queue is None:
                    continue
                # Only shared/shared is compatible (LockMode.compatible_with).
                exclusive = grant.mode is LockMode.EXCLUSIVE
                for request in queue:
                    if (
                        request.owner != owner
                        and (exclusive or request.mode is LockMode.EXCLUSIVE)
                        and request.pending
                    ):
                        return True
        queued = self._queued_by_owner.get(owner)
        if queued is not None:
            for mine in queued:
                if not mine.pending:
                    continue
                exclusive = mine.mode is LockMode.EXCLUSIVE
                behind = False
                for request in self._queues[mine.key]:
                    if not behind:
                        behind = request is mine
                    elif (
                        request.owner != owner
                        and not request.upgrade
                        and (exclusive or request.mode is LockMode.EXCLUSIVE)
                        and request.pending
                    ):
                        return True
        return False

    def is_available(self, key: str, mode: LockMode, *, owner: Optional[str] = None) -> bool:
        """Could ``owner`` acquire ``key`` in ``mode`` right now?"""
        for grant in self._locks.get(key, ()):
            if owner is not None and grant.owner == owner:
                continue
            if not grant.mode.compatible_with(mode):
                return False
        return True

    def __len__(self) -> int:
        return sum(len(grants) for grants in self._locks.values())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grant_of(self, owner: str, key: str) -> Optional[LockGrant]:
        held = self._held_by_owner.get(owner)
        return None if held is None else held.get(key)

    def _forget_settled(self, owner: str) -> None:
        """Drop ``owner``'s granted / cancelled requests from the owner index."""
        queued = self._queued_by_owner.get(owner)
        if queued is None:
            return
        queued[:] = [request for request in queued if request.pending]
        if not queued:
            del self._queued_by_owner[owner]

    def _blockers(self, owner: str, key: str, mode: LockMode) -> list[str]:
        """Owners preventing an immediate grant: conflicting holders first,
        then anyone already queued (FIFO fairness -- no barging)."""
        blockers = []
        for grant in self._locks.get(key, ()):
            if grant.owner != owner and not grant.mode.compatible_with(mode):
                blockers.append(grant.owner)
        for request in self._queues.get(key, ()):
            if request.pending and request.owner != owner:
                blockers.append(request.owner)
        return blockers

    def _upgrade_blockers(self, owner: str, key: str) -> list[str]:
        """Other holders standing in the way of a shared -> exclusive upgrade."""
        return [g.owner for g in self._locks.get(key, ()) if g.owner != owner]

    def _grant(self, owner: str, key: str, mode: LockMode, *, now: float) -> LockGrant:
        grant = LockGrant(key=key, owner=owner, mode=mode, granted_at=now)
        holders = self._locks.get(key)
        if holders is None:
            self._locks[key] = [grant]
            self._lock_serial[key] = self._next_serial
            self._next_serial += 1
        else:
            holders.append(grant)
        self._held_by_owner.setdefault(owner, {})[key] = grant
        self.stats.grants += 1
        self.stats.held_since[(owner, key)] = now
        return grant

    def _upgrade(self, held: LockGrant, *, now: float) -> LockGrant:
        """Strengthen a shared grant in place (hold time keeps its origin)."""
        upgraded = LockGrant(
            key=held.key, owner=held.owner, mode=LockMode.EXCLUSIVE,
            granted_at=held.granted_at,
        )
        holders = self._locks[held.key]
        holders[holders.index(held)] = upgraded
        self._held_by_owner[held.owner][held.key] = upgraded
        return upgraded

    def _drop_grant(self, grant: LockGrant) -> None:
        """Remove ``grant`` from its key's holders (the caller keeps the
        held index in step)."""
        holders = self._locks[grant.key]
        if len(holders) == 1:
            del self._locks[grant.key]
            del self._lock_serial[grant.key]
        else:
            holders.remove(grant)

    def _account_release(self, owner: str, key: str, *, now: float) -> None:
        since = self.stats.held_since.pop((owner, key), None)
        if since is not None:
            self.stats.total_hold_time += max(0.0, now - since)
        self.stats.releases += 1

    def _promote(self, key: str, *, now: float) -> None:
        """Grant now-compatible queued requests from the front of the queue."""
        queue = self._queues.get(key)
        if queue is None:
            return
        promoted: list[LockRequest] = []
        while queue:
            request = queue[0]
            if not request.pending:
                queue.pop(0)
                continue
            held = self._grant_of(request.owner, key)
            if held is not None:
                if not self._upgrade_blockers(request.owner, key):
                    queue.pop(0)
                    request.granted = self._upgrade(held, now=now)
                    request.granted_at = now
                    promoted.append(request)
                    continue
                break
            blocked = any(
                grant.owner != request.owner
                and not grant.mode.compatible_with(request.mode)
                for grant in self._locks.get(key, ())
            )
            if blocked:
                break
            queue.pop(0)
            request.granted = self._grant(request.owner, key, request.mode, now=now)
            request.granted_at = now
            promoted.append(request)
        if not queue:
            self._queues.pop(key, None)
        for request in promoted:
            self.stats.wait_time_total += request.wait_time
            if self.on_grant is not None:
                self.on_grant(request)
