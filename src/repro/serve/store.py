"""Content-addressed result store with single-writer dedup.

Results are keyed by :func:`~repro.parallel.spec_fingerprint` — the
versioned hash of everything a trial's outcome depends on — so two
submissions of the same spec share one computation and one stored
result, across jobs and across server restarts.  Three invariants:

* **addressing** — one file per fingerprint
  (``<root>/<fp>.json``), written atomically (``os.replace`` of a
  same-directory temp file) so readers never observe a torn write;
* **single writer** — :meth:`ResultStore.lease` hands out at most one
  lease per fingerprint at a time; concurrent requesters get the
  leader's :class:`threading.Event` and wait for :meth:`fulfill`
  instead of recomputing;
* **no wrong answers** — a spec is cacheable only when it is
  deterministic, i.e. carries an explicit ``seed``
  (:meth:`cacheable`).  Unseeded trials always compute.
* **corrupt entries are misses** — a stored file that exists but no
  longer parses (torn write survived a crash, disk bitrot, manual
  tampering) is quarantined to ``<fp>.json.corrupt`` and treated as a
  miss, so the fingerprint recomputes instead of poisoning every
  future hit.

The store itself keeps no hit/miss counters — the
:class:`~repro.serve.jobs.JobManager` records those in its
:class:`~repro.observability.MetricsRegistry` where they land on
``/metrics``.  The one store-level event worth counting, a
quarantined corrupt entry, is reported through the optional
``on_corrupt`` callback for the same reason.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

__all__ = ["ResultStore"]


class ResultStore:
    """Fingerprint-addressed JSON results on disk, with in-process
    in-flight coalescing.  Thread-safe."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        on_corrupt: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._sweep_stale_tmp()
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self._on_corrupt = on_corrupt

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files a crashed leader left behind.

        :meth:`fulfill` writes ``<fp>.json.tmp.<pid>.<tid>`` and
        ``os.replace``s it into place; a process killed between the two
        leaves the temp file forever.  No live writer's temp file can be
        racing us here: this runs before the store hands out any lease,
        and temp names are pid/tid-qualified so another *process* writing
        into the same root would only lose an in-flight temp file (its
        ``os.replace`` simply fails, and the fingerprint recomputes).
        """
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if ".json.tmp." not in name:
                continue
            try:
                os.remove(os.path.join(self.root, name))
            except OSError:
                pass  # already gone, or unremovable: not worth failing init

    @staticmethod
    def cacheable(spec) -> bool:
        """Whether ``spec``'s result may be served from the store.

        Only explicitly seeded specs qualify: an unseeded trial draws
        fresh randomness per run, so 'the same request' is *supposed*
        to differ between submissions.
        """
        return spec.seed is not None

    def path(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.json")

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored result for ``fingerprint``, or ``None``.  A
        missing or unreadable file is a miss, never an error.

        A file that *exists* but does not parse is a torn or corrupted
        entry: it is renamed to ``<fp>.json.corrupt`` (preserved for
        post-mortem, out of the way of future reads) and reported via
        ``on_corrupt`` before the miss is returned.
        """
        path = self.path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(fingerprint, path)
            return None

    def _quarantine(self, fingerprint: str, path: str) -> None:
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            return  # a concurrent reader already moved it
        if self._on_corrupt is not None:
            try:
                self._on_corrupt(fingerprint)
            except Exception:
                pass  # telemetry must never break the read path

    def lease(
        self, fingerprint: str
    ) -> Tuple[str, Union[Dict[str, Any], threading.Event]]:
        """Claim the right to compute ``fingerprint``, or learn why not.

        Returns one of::

            ("hit",   result_dict)  # already stored — use it
            ("wait",  event)        # another thread holds the lease;
                                    # wait on the event, then get()
            ("lease", event)        # you are the single writer: compute,
                                    # then fulfill() or abandon()
        """
        with self._lock:
            result = self.get(fingerprint)
            if result is not None:
                return ("hit", result)
            event = self._inflight.get(fingerprint)
            if event is not None:
                return ("wait", event)
            event = threading.Event()
            self._inflight[fingerprint] = event
            return ("lease", event)

    def fulfill(self, fingerprint: str, result: Dict[str, Any]) -> None:
        """Store the leased result and wake every waiter (atomic).

        The temp file is fsynced before the rename so the rename never
        publishes a name whose *contents* are still in the page cache —
        without it a power loss can durably commit the rename but not
        the data, which is exactly the torn entry :meth:`get`
        quarantines.
        """
        final = self.path(fingerprint)
        tmp = f"{final}.tmp.{os.getpid()}.{threading.get_ident()}"
        text = json.dumps(result, sort_keys=True)  # C encoder, unlike dump
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._fsync_dir()
        self._release(fingerprint)

    def _fsync_dir(self) -> None:
        """Best-effort fsync of the store directory so the rename itself
        is durable; some filesystems don't allow O_RDONLY dir fds."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def abandon(self, fingerprint: str) -> None:
        """Give up a lease without storing (the trial failed or was
        cancelled).  Waiters wake, find no result, and fall back to
        computing for themselves."""
        self._release(fingerprint)

    def _release(self, fingerprint: str) -> None:
        with self._lock:
            event = self._inflight.pop(fingerprint, None)
        if event is not None:
            event.set()

    def wait(
        self, fingerprint: str, event: threading.Event, timeout: Optional[float]
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Wait for a leased computation, then re-read the store.

        Returns ``(result, timed_out)``.  ``result`` is ``None`` when
        there is nothing stored — because the leader abandoned, *or*
        because the wait expired while the leader was still computing.
        ``timed_out`` distinguishes the two: ``Event.wait`` returns
        ``False`` on expiry, and discarding that bool (the old
        behaviour) made a slow leader indistinguishable from a failed
        one, so callers silently recomputed without ever counting the
        expired coalesce wait.
        """
        completed = event.wait(timeout)
        return self.get(fingerprint), not completed

    def __len__(self) -> int:
        try:
            return sum(
                1
                for name in os.listdir(self.root)
                if name.endswith(".json")
            )
        except OSError:
            return 0
