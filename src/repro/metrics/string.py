"""String distance metrics: Levenshtein edit distance and Hamming distance.

Two of the paper's datasets are string-valued:

* **Words** — English words (length 1-34), edit distance;
* **DNA** — DNA reads of length ~108, edit distance.

Edit distance is computed with the bit-parallel algorithm of Myers (1999) in
Hyyrö's formulation.  The query is the *pattern*: one column of the dynamic
program over the pattern is held as two bit vectors, ``pv`` / ``mv``, whose
bit ``i`` says that ``D[i + 1][j] - D[i][j]`` is +1 / -1.  Each text character
advances the column with a constant number of word operations, driven by
``peq[c]``, the bit mask of the pattern positions holding ``c``.  After the
last text character, ``D[m][n] = n + popcount(pv) - popcount(mv)``.  The
algorithm comes in two forms with the same recurrence:

* :func:`edit_distance` — one pair over Python ints, which grow to any
  pattern length;
* :func:`edit_distance_segmented` — every (query, candidate) pair of a
  segmented call as one ``uint64`` lane per 64-pattern-character block,
  advanced a text column at a time by NumPy operations over all lanes.

Characters are compared as code points, so any ``str`` (lone surrogates
included) has a distance.  Both forms return exact integers, so the host
strategy never changes an answer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import MetricError
from .base import Metric

__all__ = [
    "EditDistance",
    "HammingDistance",
    "edit_distance",
    "edit_distance_segmented",
    "hamming_distance",
]

#: Most pairs advanced together by the lane kernel.  Bounds its temporaries
#: (two uint32 code matrices of the chunk's texts, about a hundred bytes per
#: lane and pattern word, and the chunk's Peq table) while keeping each NumPy
#: operation long enough to amortise its call overhead.  A call is split into
#: equal chunks, so no chunk is a small remainder.
LANE_CHUNK = 4096

#: Calls with fewer pairs run the scalar form pair by pair: a lane chunk pays
#: about twenty NumPy calls per text column and pattern word whatever its
#: width, which only pays off across a few dozen lanes.
SCALAR_PAIRS = 64

#: Peq rows (chunk queries x (alphabet + 1), 8 bytes per pattern word) built
#: per chunk.  A large alphabet caps the number of queries a chunk may hold,
#: so the table stays bounded for any input.
PEQ_CHUNK_ROWS = 1 << 16

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def edit_distance(a: str, b: str) -> int:
    """Return the Levenshtein distance between two strings.

    Single-pair Myers/Hyyrö over Python ints: the longer string is the
    pattern, so the loop runs over the shorter one, and patterns longer than
    a machine word need no blocking because Python ints have no width.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # row 0 of the DP is D[0][j] = j: a +1 horizontal delta enters below
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def _code_matrix(strings: Sequence[str], width: int) -> np.ndarray:
    """``(len(strings), width)`` uint32 code points, zero-padded on the right."""
    return np.array(strings, dtype=f"<U{max(1, width)}").view(np.uint32).reshape(
        len(strings), max(1, width)
    )


def edit_distance_segmented(
    queries: Sequence[str], objects: Sequence[str], boundaries: np.ndarray
) -> np.ndarray:
    """Levenshtein distance of every pair of a segmented call, as int64.

    Segment ``i`` is ``objects[boundaries[i]:boundaries[i + 1]]`` and is
    compared against ``queries[i]``.  A call of fewer than
    :data:`SCALAR_PAIRS` pairs runs :func:`edit_distance` pair by pair; a
    larger one is taken in equal chunks of at most :data:`LANE_CHUNK`
    consecutive pairs.  Within a chunk:

    * each query's Peq table is built over a compact alphabet — the code
      points of the call's queries, ranked through one lookup table; text
      symbols that occur in no query hit an all-zero row;
    * a pattern of ``m`` characters spans ``ceil(m / 64)`` words, and the
      word loop carries the addition and the shifts from word to word, so
      DNA reads (~108 characters) run the same code as Words;
    * lanes are sorted by text length, so at text column ``j`` exactly the
      prefix of lanes whose text is longer than ``j`` advances and the rest
      stay frozen at their last column.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    total = int(boundaries[-1])
    out = np.empty(total, dtype=np.int64)
    if total == 0:
        return out
    if total < SCALAR_PAIRS:
        for qi, query in enumerate(queries):
            for k in range(int(boundaries[qi]), int(boundaries[qi + 1])):
                out[k] = edit_distance(query, objects[k])
        return out
    qlen = np.fromiter(map(len, queries), dtype=np.int64, count=len(queries))
    qcodes = _code_matrix(queries, int(qlen.max()))
    qvalid = np.arange(qcodes.shape[1]) < qlen[:, None]
    alphabet = np.unique(qcodes[qvalid])
    symbols = len(alphabet) + 1  # the last row is the all-zero row
    # code point -> alphabet rank; ``take(mode="clip")`` sends every code
    # above the table's end to that last, zero row
    lut = np.full(int(alphabet[-1]) + 2 if len(alphabet) else 1, symbols - 1,
                  dtype=np.min_scalar_type(symbols))
    lut[alphabet] = np.arange(len(alphabet))
    qranks = lut.take(qcodes)
    max_queries = max(1, PEQ_CHUNK_ROWS // symbols)
    num_chunks = -(-total // LANE_CHUNK)
    chunk = -(-total // num_chunks)

    lo = 0
    while lo < total:
        first = int(np.searchsorted(boundaries, lo, side="right")) - 1
        last_bound = boundaries[min(first + max_queries, len(queries))]
        hi = int(min(lo + chunk, total, last_bound))
        stop = int(np.searchsorted(boundaries, hi, side="left"))
        sizes = np.minimum(boundaries[first + 1 : stop + 1], hi) - np.maximum(
            boundaries[first:stop], lo
        )
        out[lo:hi] = _edit_distance_chunk(
            qranks[first:stop],
            qlen[first:stop],
            qvalid[first:stop],
            symbols,
            lut,
            np.repeat(np.arange(stop - first), sizes),
            objects[lo:hi],
        )
        lo = hi
    return out


def _edit_distance_chunk(qranks, qlen, qvalid, symbols, lut, lane_query, texts):
    """One chunk of :func:`edit_distance_segmented` (lanes in call order)."""
    lanes = len(texts)
    tlen = np.fromiter(map(len, texts), dtype=np.int64, count=lanes)
    order = np.argsort(-tlen)
    tlen = tlen[order]
    lane_query = lane_query[order]
    columns = int(tlen[0])
    # text code points, column-major, in sorted lane order
    tcodes = _code_matrix(texts, columns).T[:, order]
    # lanes still inside their text at column j: a prefix of the sorted lanes
    active = np.searchsorted(-tlen, -np.arange(columns), side="left")

    words = max(1, -(-int(qlen.max()) // 64))
    peq = np.zeros((words, len(qlen) * symbols), dtype=np.uint64)
    qi, pos = np.nonzero(qvalid)
    np.bitwise_or.at(
        peq,
        (pos >> 6, qi * symbols + qranks[qi, pos]),
        np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64)),
    )
    base = lane_query * symbols

    pv = np.full((words, lanes), _ALL_ONES, dtype=np.uint64)
    mv = np.zeros((words, lanes), dtype=np.uint64)
    eq_buf, xv_buf, xh_buf, ph_buf, mh_buf = np.empty((5, lanes), dtype=np.uint64)
    col_buf = np.empty(lanes, dtype=np.intp)
    for j in range(columns):
        n = int(active[j])
        col = np.add(base[:n], lut.take(tcodes[j, :n], mode="clip"), out=col_buf[:n])
        eq, xv, xh, ph, mh = eq_buf[:n], xv_buf[:n], xh_buf[:n], ph_buf[:n], mh_buf[:n]
        carry = ph_in = mh_in = None
        for w in range(words):
            pv_w, mv_w = pv[w, :n], mv[w, :n]
            np.take(peq[w], col, out=eq, mode="clip")
            np.bitwise_or(eq, mv_w, out=xv)
            # xh = (((eq & pv) + pv) ^ pv) | eq, the addition spanning words
            np.bitwise_and(eq, pv_w, out=xh)
            np.add(xh, pv_w, out=xh)
            if words > 1:
                overflow = xh < pv_w
                if carry is not None:
                    np.add(xh, carry, out=xh)
                    overflow |= xh < carry
                carry = overflow.astype(np.uint64)
            np.bitwise_xor(xh, pv_w, out=xh)
            np.bitwise_or(xh, eq, out=xh)
            # ph = mv | ~(xh | pv);  mh = pv & xh
            np.bitwise_or(xh, pv_w, out=ph)
            np.invert(ph, out=ph)
            np.bitwise_or(ph, mv_w, out=ph)
            np.bitwise_and(pv_w, xh, out=mh)
            # shift left by one, the top bits entering the next word; row 0
            # (D[0][j] = j) feeds a +1 horizontal delta into the first word
            ph_out, mh_out = (ph >> 63, mh >> 63) if w + 1 < words else (None, None)
            np.left_shift(ph, 1, out=ph)
            np.left_shift(mh, 1, out=mh)
            if ph_in is None:
                np.bitwise_or(ph, 1, out=ph)
            else:
                np.bitwise_or(ph, ph_in, out=ph)
                np.bitwise_or(mh, mh_in, out=mh)
            ph_in, mh_in = ph_out, mh_out
            # pv = mh | ~(xv | ph);  mv = ph & xv
            np.bitwise_or(xv, ph, out=xh)
            np.invert(xh, out=xh)
            np.bitwise_or(xh, mh, out=pv_w)
            np.bitwise_and(ph, xv, out=mv_w)

    # D[m][n] = n + (+1 deltas) - (-1 deltas) over the m pattern rows
    dist = tlen.copy()
    pattern_bits = qlen[lane_query]
    for w in range(words):
        bits = np.clip(pattern_bits - 64 * w, 0, 64).astype(np.uint64)
        mask = ~np.left_shift(_ALL_ONES, bits)  # numpy: a shift by 64 gives 0
        dist += np.bitwise_count(pv[w] & mask)
        dist -= np.bitwise_count(mv[w] & mask)
    out = np.empty(lanes, dtype=np.int64)
    out[order] = dist
    return out


def hamming_distance(a: str, b: str) -> int:
    """Return the Hamming distance between two equal-length strings."""
    if len(a) != len(b):
        raise MetricError(
            f"hamming distance requires equal-length strings, got {len(a)} and {len(b)}"
        )
    return sum(ca != cb for ca, cb in zip(a, b))


def _require_strings(objects: Sequence) -> None:
    if not all(issubclass(t, str) for t in set(map(type, objects))):
        raise MetricError("edit distance is defined on strings")


class EditDistance(Metric):
    """Levenshtein edit distance over strings (insert / delete / replace).

    ``unit_cost`` scales quadratically with the expected string length so the
    simulated GPU charges DNA comparisons (length ~108) far more than word
    comparisons (length ~7), mirroring the paper's observation that DNA is its
    most computation-bound dataset.
    """

    supports_vectors = False
    is_lp_norm = False

    def __init__(self, expected_length: int = 10):
        if expected_length <= 0:
            raise MetricError("expected_length must be positive")
        super().__init__()
        self.name = "edit-distance"
        self.expected_length = int(expected_length)
        # One abstract operation per dynamic-programming cell.
        self.unit_cost = float(max(1, expected_length) ** 2)

    def _distance(self, a, b) -> float:
        if not isinstance(a, str) or not isinstance(b, str):
            raise MetricError("edit distance is defined on strings")
        return float(edit_distance(a, b))

    def _pairwise(self, query, objects: Sequence[str]) -> np.ndarray:
        return self._pairwise_segmented([query], objects, np.array([0, len(objects)]))

    def _matrix(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        ys = list(ys)
        boundaries = np.arange(len(xs) + 1, dtype=np.int64) * len(ys)
        return self._pairwise_segmented(xs, ys * len(xs), boundaries).reshape(
            len(xs), len(ys)
        )

    def _pairwise_segmented(
        self, queries, objects, boundaries: np.ndarray, object_digest=None
    ) -> np.ndarray:
        _require_strings(queries)
        _require_strings(objects)
        return edit_distance_segmented(queries, objects, boundaries).astype(np.float64)

    def validate_objects(self, objects: Sequence) -> None:
        super().validate_objects(objects)
        _require_strings(objects)


class HammingDistance(Metric):
    """Hamming distance over equal-length strings (included for completeness)."""

    supports_vectors = False
    is_lp_norm = False

    def __init__(self) -> None:
        super().__init__()
        self.name = "hamming"
        self.unit_cost = 1.0

    def _distance(self, a, b) -> float:
        return float(hamming_distance(a, b))

    def _pairwise(self, query, objects: Sequence[str]) -> np.ndarray:
        return np.array([hamming_distance(query, o) for o in objects], dtype=np.float64)
