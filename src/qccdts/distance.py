"""Column distances, free-distance search and the CSOC distance certificate.

Everything here works on the systematic single-parity-row form: the n-1
information streams are free and the parity stream is their tap-filtered
sum, so codewords are enumerated by information frames alone.

One depth-first search serves column distances and free distance. It
runs the parity row's encoder as a shift register: the information
frames it looks back over live in one int, newest frame in the low bits,
and the delayed taps within reach in one mask, so each node costs one
popcount plus a table lookup per input frame, whatever the memory. Paths
start with a nonzero frame at time 0 and are pruned once no lighter than
the incumbent. A path completes when the register flushes (a codeword)
or, for a column distance over window [0..j], when it reaches time j.
That window holds min(mu, j) frames, so its cost does not grow with the
largest exponent. The free-distance search holds mu frames and is
bounded by weight: with budget b, any codeword of weight <= b closes
within b * (mu + 1) frames, since each nonzero input adds weight and a
gap longer than mu flushes the register. One test, exact_search_guard,
holds its guards (budget MAX_EXACT_BUDGET, memory MAX_EXACT_MEMORY):
dfree_exact raises its message before building a register, certify_dfree
skips its cross-check on it and the CLI checks ``--budget`` with it.
Column-distance windows are capped at MAX_WINDOW_BITS information bits.

A path one below the incumbent is settled by a walk instead of a
subtree: every nonzero frame and every parity 1 adds weight, so only its
all-zero tail can still finish lighter, and the walk follows that one
tail until a parity 1 drops it or the path completes. The walk visits the
one path of the subtree that the weight bound leaves unpruned, so every
result is unchanged; on Z of catalogue rows 3.3 and 3.4 it cuts the
search nodes from about 350,000 to 24,000.

A column distance needs no search when its seed, the lightest truncated
impulse 1 + min_i t_i(j), is 1 or 2, or when the row is CSOC; t_i(j)
counts the taps of stream i at delay <= j (definitions as in Johannesson
& Zigangirov, Fundamentals of Convolutional Coding, 1999). Every window
codeword weighs at least 1, and one of weight 1 is a single first-frame
bit on a stream with no tap at delay <= j, which makes the seed 1; so a
seed of 2 is the minimum too. On a CSOC row the parity checks orthogonal
on each information bit (Massey, Threshold Decoding, 1963), cut to the
window, bound every window from below. A window codeword with a nonzero
first block has u_i(0) = 1 on some stream i, and it meets the t_i(j)
parity checks at the times a <= j of stream i's taps. Each of these
checks holds u_i(0), and since the supports form a DTS no two of them
share any other position: checks at times a and a' sharing a bit at
time a - m = a' - m' would repeat the difference a - a' = m - m'. Every
check sums to zero, so each needs its own second 1 inside the window,
and the window weighs at least 1 + t_i(j), which is at least the seed.
The truncated impulse on the lightest stream meets the bound, so the
seed is the column distance. A non-CSOC row is searched whenever its
seed is 3 or more, because some of its windows weigh less than the seed.
The free-distance search has no such shortcut: there a weight-1 codeword
needs a stream whose polynomial is zero.

Every entry point rejects a row with a negative exponent (a Laurent
term) before any work, since the encoder runs forward from time 0. The
supports that pass that check, like the memory and the CSOC verdict, are
computed once per row and kept on the row, so the profile's
``column_distance`` calls and the certificate read them without
re-checking the row.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from itertools import repeat

from .csoc import is_csoc, memory, parity_supports
from .gf2poly import PolyMatrix, _Record, _setattr

MAX_EXACT_BUDGET = 6
MAX_EXACT_MEMORY = 12
MAX_WINDOW_BITS = 45


class Method(enum.Enum):
    EXACT_SEARCH = "exact_search"
    CSOC_CERTIFICATE = "csoc_certificate"
    UPPER_BOUND = "upper_bound"

    def __str__(self) -> str:
        return self.value


class DistanceCertificate(_Record):
    """A free-distance claim plus the codeword witnessing the upper bound.

    The witness is a list of (time, frame) pairs covering the nonzero
    frames of a codeword of weight d_free whose first nonzero block sits
    at time 0. ``search_budget`` records the weight bound exhaustively
    refuted by search, when a search ran.
    """

    __slots__ = ("d_free", "method", "witness", "search_budget")


def _causal_supports(x: PolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Parity supports of a systematic row, none with a negative exponent."""
    supports = x._causal
    if supports is None:
        supports = parity_supports(x)
        for i, sup in enumerate(supports):
            if sup and sup[0] < 0:
                raise ValueError(
                    f"stream {i + 1} has negative exponent {sup[0]}; "
                    "distances need exponents >= 0"
                )
        _setattr(x, "_causal", supports)
    return supports


def _shift_register(
    supports: tuple[tuple[int, ...], ...], frames: int
) -> tuple[int, int, list[int], list[int]]:
    """The parity row's encoder as a shift register over ``frames`` frames.

    The state packs the last ``frames`` information frames into one int,
    the newest frame in the low ``streams`` bits, so the frame at delay
    l >= 1 sits at bits streams*(l-1) onward. Taps at delays beyond
    ``frames`` are dropped: a search that never looks further back than
    that many frames cannot reach them. Returns (keep, taps, pop, par0):
    ``keep`` masks the state to ``frames`` frames, ``taps`` holds every
    kept delayed tap at its state position, and for each input frame u,
    ``pop[u]`` is its weight and ``par0[u]`` its delay-0 contribution to
    the parity bit. The parity output for input u in state s is therefore
    ``((s & taps).bit_count() & 1) ^ par0[u]`` and the next state is
    ``((s << streams) | u) & keep``; masking after the OR makes a
    zero-frame register keep no state at all.
    """
    streams = len(supports)
    taps = 0
    mask0 = 0
    for i, sup in enumerate(supports):
        for ell in sup:
            if not ell:
                mask0 |= 1 << i
            elif ell <= frames:
                taps |= 1 << (streams * (ell - 1) + i)
    inputs = range(1 << streams)
    pop = [u.bit_count() for u in inputs]
    par0 = [(mask0 & u).bit_count() & 1 for u in inputs]
    return (1 << streams * frames) - 1, taps, pop, par0


def exact_search_guard(budget: int, mu: int = 0) -> str | None:
    """The exact search's guard message at this budget and memory, or None.

    The default ``mu = 0`` tests the budget alone.
    """
    if budget < 1:
        return "budget must be positive"
    if budget > MAX_EXACT_BUDGET:
        return f"budget {budget} exceeds exact-search guard {MAX_EXACT_BUDGET}"
    if mu > MAX_EXACT_MEMORY:
        return f"memory {mu} exceeds exact-search guard {MAX_EXACT_MEMORY}"
    return None


def _lightest(
    supports: tuple[tuple[int, ...], ...], frames: int, last: int, best: int, window: bool
) -> int:
    """Weight of the lightest path completed below ``best``, else ``best``.

    Paths run over times 0..last, from a nonzero frame at time 0, through
    a register of ``frames`` frames. One completes when the register
    flushes or, with ``window``, at time ``last``; a flushed window may
    complete early, as its later frames can all be zero and add no weight.

    A path that reaches weight ``best - 1`` before ``last`` can still
    complete below ``best`` only through all-zero frames that add no
    parity 1, since any other frame or parity bit weighs at least 1. So
    the search walks that one tail in a loop instead of calling
    ``descend`` at each step: a parity 1 drops the path, and a flush or,
    with ``window``, time ``last`` completes it at ``best - 1``. Reaching
    ``last`` unflushed without ``window`` drops it, as the subtree would.
    """
    streams = len(supports)
    keep, taps, pop, par0 = _shift_register(supports, frames)
    inputs = range(1 << streams)

    def descend(t: int, state: int, weight: int) -> None:
        nonlocal best
        p = (state & taps).bit_count() & 1
        for u in inputs[1:] if t == 0 else inputs:
            w2 = weight + pop[u] + (p ^ par0[u])
            if w2 >= best:
                continue
            nxt = ((state << streams) | u) & keep
            if not nxt or (window and t == last):
                best = w2
            elif t < last:
                if w2 < best - 1:
                    descend(t + 1, nxt, w2)
                    continue
                # Only the zero tail stays below best: walk it, no subtree.
                for s in range(t + 1, last + 1):
                    if (nxt & taps).bit_count() & 1:
                        break
                    nxt = (nxt << streams) & keep
                    if not nxt or (window and s == last):
                        best = w2
                        break

    descend(0, 0, 0)
    return best


def column_distance(h: PolyMatrix, j: int) -> int:
    """Minimum weight over window-[0..j] codewords with a nonzero first block.

    Exact: the seed is the lightest truncated impulse (one bit on a stream
    at time 0 and its parity taps at delays <= j), 1 + min_i t_i(j) with
    t_i(j) the number of taps of stream i at delay <= j. The seed is
    returned as it is in two cases:

    - It is 1 or 2. A window of weight 1 is such an impulse on a stream
      with no tap at delay <= j, whose seed is 1, so no window is lighter
      than a seed of 2 either.
    - The row is CSOC. A window with u_i(0) = 1 meets the t_i(j) parity
      checks at the times a <= j of stream i's taps. Each holds u_i(0),
      and on a DTS no two share any other position, so each needs its
      own second 1 inside the window: the window weighs at least
      1 + t_i(j), which is at least the seed.

    Otherwise the search starts from the seed and visits every window that
    could be lighter, since a non-CSOC row may have some. A window of j
    frames looks back at most j frames, so the register holds min(mu, j)
    of them. The CSOC verdict is the one kept on the row.
    """
    supports = _causal_supports(h)
    if j < 0:
        raise ValueError("window index must be non-negative")
    streams = len(supports)
    if (j + 1) * streams > MAX_WINDOW_BITS:
        raise ValueError(
            f"window too large for exact oracle: {(j + 1) * streams} information "
            f"bits exceeds {MAX_WINDOW_BITS}"
        )
    seed = 1 + min(map(bisect_right, supports, repeat(j)))
    if seed <= 2 or is_csoc(h).ok:
        return seed
    return _lightest(supports, min(memory(h), j), j, seed, window=True)


def dfree_upper(x: PolyMatrix) -> DistanceCertificate:
    """Upper bound by a single information impulse on the lightest stream.

    The impulse on stream i produces information weight 1 and parity
    weight equal to the tap count of x_i, so total weight w_i + 1. Ties
    are broken toward the smallest stream index.
    """
    supports = _causal_supports(x)
    weights = [len(s) for s in supports]
    stream = min(range(len(weights)), key=lambda i: (weights[i], i))
    sup = supports[stream]
    streams = len(supports)

    frames: dict[int, list[int]] = {}
    impulse = [0] * (streams + 1)
    impulse[stream] = 1
    frames[0] = impulse
    for t in sup:
        frames.setdefault(t, [0] * (streams + 1))[streams] ^= 1
    witness = tuple(
        (t, tuple(bits)) for t, bits in sorted(frames.items()) if any(bits)
    )
    return DistanceCertificate(
        d_free=weights[stream] + 1,
        method=Method.UPPER_BOUND,
        witness=witness,
        search_budget=None,
    )


def dfree_exact(x: PolyMatrix, budget: int) -> int | None:
    """True free distance when it is <= budget, else None.

    Bounded-weight DFS over information frames; the state is the last mu
    frames and a path closes (yields a codeword) when the state flushes
    to all zero. It searches budget * (mu + 1) frames, enough for any
    codeword within budget.
    """
    supports = _causal_supports(x)
    mu = memory(x)
    if reason := exact_search_guard(budget, mu):
        raise ValueError(reason)
    best = _lightest(supports, mu, budget * (mu + 1) - 1, budget + 1, window=False)
    return best if best <= budget else None


def certify_dfree(x: PolyMatrix) -> DistanceCertificate:
    """Distance certificate d_free = w + 1 for a self-orthogonal row.

    The impulse witness proves the upper bound; when the desk-scale
    guards allow it, the exact search is also run and must agree, in
    which case the exhausted budget is recorded on the certificate.
    """
    upper = dfree_upper(x)  # first, as it rejects a negative exponent
    report = is_csoc(x)
    if not report.ok:
        raise ValueError("certificate requires CSOC; input row is not")
    target = upper.d_free

    search_budget = None
    if exact_search_guard(target, memory(x)) is None:
        found = dfree_exact(x, budget=target)
        if found != target:
            raise RuntimeError(
                f"distance certificate contradicted: exact search returned "
                f"{found!r}, certificate says {target}"
            )
        search_budget = target
    return DistanceCertificate(
        d_free=target,
        method=Method.CSOC_CERTIFICATE,
        witness=upper.witness,
        search_budget=search_budget,
    )
