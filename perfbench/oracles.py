"""Output checks that do not use the program's own predicates.

* SMM (Theorem 1, Lemma 8): the final pointers are neighbour pointers
  or null, every non-null pointer is reciprocated, the reciprocated
  pairs form a maximal matching of the benchmark's own CSR, and the run
  took at most ``n + 1`` rounds.
* SIS (Theorem 2): the final set equals the greedy MIS by descending id,
  the unique fixpoint, computed here by a plain loop; rounds stay within
  the program's ``bound_for`` envelope.

Each check returns ``None`` when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from gen import CSR

from repro.observability.convergence import bound_for


def pointer_array(final: Mapping, n: int) -> np.ndarray:
    return np.fromiter(
        (-1 if final[i] is None else final[i] for i in range(n)),
        dtype=np.int64,
        count=n,
    )


def check_smm(csr: CSR, final: Mapping, rounds: int, stabilized: bool) -> Optional[str]:
    n = csr.n
    if not stabilized:
        return "SMM did not stabilize"
    if rounds > n + 1:
        return f"SMM took {rounds} rounds > n+1 = {n + 1} (Theorem 1)"
    ptr = pointer_array(final, n)
    if ptr.min(initial=0) < -1 or ptr.max(initial=-1) >= n:
        return "SMM pointer out of range"
    src = np.nonzero(ptr >= 0)[0]
    if src.size:
        keys = csr.row * n + csr.indices  # sorted: rows and columns ascend
        want = src * n + ptr[src]
        hit = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
        if keys.size == 0 or not np.array_equal(keys[hit], want):
            return "SMM pointer to a non-neighbour"
    matched = np.zeros(n, dtype=bool)
    matched[src] = ptr[ptr[src]] == src
    if np.any((ptr >= 0) & ~matched):
        return "SMM unreciprocated pointer at quiescence"
    free = ~matched
    if np.any(free[csr.row] & free[csr.indices]):
        return "SMM matching is not maximal"
    return None


def greedy_mis(csr: CSR) -> np.ndarray:
    """0/1 array of the greedy MIS by descending id."""
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    in_set = bytearray(csr.n)
    for i in range(csr.n - 1, -1, -1):
        k = indptr[i + 1] - 1
        lo = indptr[i]
        while k >= lo and indices[k] > i:  # rows ascend: bigger ids last
            if in_set[indices[k]]:
                break
            k -= 1
        else:
            in_set[i] = 1
    return np.frombuffer(bytes(in_set), dtype=np.uint8)


def check_sis(expected: np.ndarray, final: Mapping, rounds: int, stabilized: bool, bound: int) -> Optional[str]:
    n = expected.size
    if not stabilized:
        return "SIS did not stabilize"
    if rounds > bound:
        return f"SIS took {rounds} rounds > bound {bound} (Theorem 2)"
    x = np.fromiter((final[i] for i in range(n)), dtype=np.int64, count=n)
    if not np.array_equal(x, expected):
        return "SIS set differs from the greedy MIS by descending id"
    return None


def check_run(key: str, csr: CSR, mis: np.ndarray, res) -> Optional[str]:
    """The oracle of a ``RunResult`` of protocol ``key`` (``"smm"`` or
    ``"sis"``) on the graph of ``csr``; ``mis`` is its greedy MIS."""
    if key == "smm":
        return check_smm(csr, res.final, res.rounds, res.stabilized)
    bound = bound_for("SIS", "synchronous", csr.n)[1]
    return check_sis(mis, res.final, res.rounds, res.stabilized, bound)
