"""Fractional-power repetition analysis with exact rational exponents.

A factor of a word has period ``p`` when each of its letters equals the
letter ``p`` positions later inside the factor; its exponent is
``length / p``.  A square is a factor of exponent 2, an overlap anything
strictly above 2 (such as 01010).  Thresholds come in two flavours:

* ``find_power(w, a, strict=False)`` looks for exponent >= a, and a word
  is *a-power-free* when no such factor exists;
* ``strict=True`` looks for exponent > a, and a word is *a+-power-free*
  ("a-plus", e.g. overlap-free = 2+) when no such factor exists.

Every query derives from one primitive, :func:`_runs`: the maximal
repetitions meeting a threshold at every period, the runs of w[i] ==
w[i + p] of at least need(p) letters.  Periods with need(p) below
``_CROSSOVER`` (16), and every period of a word under ``_FLOOR`` (256)
letters, are scanned directly on bit planes, a Python int a bit of the
letter codes, 64 letters a machine word.  The others go in bands of
needs in [d, 2d): anchors d - per + 1 apart put a whole anchor window of
per = 8, 16, 32 or 64 letters (the widest with 2 per - 1 <= d that a
64-bit window holds) in each run of d letters, one comparison of the
anchor windows with a strided view of the windows p letters later finds
the runs of the band, and exact longest-common-extension (LCE) queries
on the 64-bit windows of the word and its reversal measure them.
Thresholds stay exact ``Fraction`` values: need(p) is integer
arithmetic, the LCE a de Bruijn table.

:func:`_free_words` grows the words free of a threshold letter by letter.
Its end test, whether a power ends at the new letter, is a step of a few
big-int operations on the run deficits need(p) - run(p) of every period,
packed one bit field a period and carried down its stack; the start
word's runs come from one backward LCE pass.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, order=True)
class PowerOccurrence:
    """A repetition witness: the factor ``word[start : start+length]``
    repeats with the given period."""

    start: int
    period: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

    def factor(self, word: str) -> str:
        return word[self.start : self.end]

    def is_valid_in(self, word: str) -> bool:
        """Check bounds and the letter[i] == letter[i+period] condition."""
        if self.start < 0 or self.period < 1 or self.length < self.period:
            return False
        if self.end > len(word):
            return False
        return word[self.start : self.end - self.period] == word[self.start + self.period : self.end]


# Periods of need below this are compared with the shifted word on bit
# planes; 16 >= 2 * 8 - 1 keeps the 8-letter anchor windows of the
# lowest band apart.
_CROSSOVER = 16
# Words shorter than this keep the direct scan at every period: with so
# few periods the fixed cost of the anchors (the window array, the band
# loop, the LCE call) dominates, and a full scan of a word of 128 to 192
# letters took 1.5-2.9x as long on them (2-vCPU host, numpy 2.4).
_FLOOR = 256
# Periods, windows per LCE round, (times 64) anchor windows and (times 4)
# letters of the direct periods with runs in one chunk: the working set.
_CHUNK = 4096

_DEBRUIJN = np.uint64(0x022FDD63CC95386D)
_TRAILING_ZEROS = np.zeros(64, dtype=np.int32)
_TRAILING_ZEROS[
    (np.uint64(1) << np.arange(64, dtype=np.uint64)) * _DEBRUIJN >> np.uint64(58)
] = range(64)


def _as_threshold(value: Fraction | int) -> Fraction:
    threshold = value if isinstance(value, Fraction) else Fraction(value)
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    return threshold


def _need(thr: Fraction, strict: bool, first: int, stop: int, limit: int) -> np.ndarray:
    """need(p) for the periods first <= p < stop, as int64: the least m
    with (p + m) / p above (strict) or at the threshold, at least 1 and at
    most limit + 1.  Computed in int64 when the largest product fits and
    in Python integers when not."""
    excess, den = thr.numerator - thr.denominator, thr.denominator
    periods = np.arange(first, stop, dtype=np.int64)
    wide = excess * stop >= 1 << 62 or den >= 1 << 62
    scaled = (periods.astype(object) if wide else periods) * excess
    # Array methods and bare ufuncs: this runs for every chunk of every
    # query, and on short words the Python wrapper of np.clip costs more
    # than the arithmetic.
    need = np.minimum(np.maximum(scaled // den + 1 if strict else -(-scaled // den), 1), limit + 1)
    return need.astype(np.int64, copy=False)


class _Windows:
    """The 64-bit window of letter codes, ``bits`` bits a letter, that
    starts at each position of a word of n letters followed by its
    reversal (from offset n).  Letters past 2n read 0; windows run across
    the seam at n, and :meth:`lce` clips every count to its limit.  The
    windows are little-endian, so the low bytes of each hold its first
    letters on any host: :meth:`view` reads them zero-copy."""

    def __init__(self, codes: np.ndarray, letters: int):
        self.bits = next(b for b in (1, 2, 4, 8) if letters <= 1 << b)
        self.per, self.equal_letters = 64 // self.bits, _TRAILING_ZEROS // self.bits
        size = 2 * len(codes)
        self.windows = np.zeros(size + 1, "<u8")
        self.windows[: len(codes)] = codes
        self.windows[len(codes) : size] = codes[::-1]
        for span in (1, 2, 4, 8, 16, 32)[: self.per.bit_length() - 1]:
            # Ascending blocks of 2^16 read only windows that no earlier
            # block wrote, and keep the shifted copy block-sized.
            for low in range(0, size + 1 - span, 1 << 16):
                block = self.windows[low + span : low + span + (1 << 16)]
                self.windows[low : low + block.size] |= block << np.uint64(span * self.bits)

    def view(self, per: int, first: int, shape: tuple[int, ...], strides: tuple[int, ...]) -> np.ndarray:
        """The first ``per`` letters (8 <= per <= self.per, a power of 2)
        of the windows from position ``first`` on, ``strides`` positions
        apart along each axis, as one unsigned int each: a strided view of
        the window array, no copy."""
        return np.ndarray(shape, f"<u{per * self.bits // 8}", self.windows, 8 * first, tuple(8 * s for s in strides))

    def _window(self, pos: np.ndarray) -> np.ndarray:
        # Positions past 2n are clipped: they only ever lie beyond the limit.
        return np.take(self.windows, pos, mode="clip")

    def _equal(self, diff: np.ndarray) -> np.ndarray:
        """Letters before the first difference in XORed windows."""
        low = diff & (~diff + np.uint64(1))
        return np.where(diff == 0, self.per, self.equal_letters[low * _DEBRUIJN >> np.uint64(58)])

    def lce(self, a: np.ndarray, b: np.ndarray, limit: np.ndarray) -> np.ndarray:
        """For each i, the largest m <= limit[i] with letters a[i]..a[i]+m-1
        equal to b[i]..b[i]+m-1 of the word followed by its reversal; needs
        a[i] + limit[i] <= 2n and the same for b.  Pairs equal over their
        first window go on in rounds, each live pair comparing as many
        windows as the most any live pair still needs, at most _CHUNK //
        (live pairs): at most _CHUNK windows a round in all."""
        out = self._equal(self._window(a) ^ self._window(b))
        live = np.flatnonzero((out == self.per) & (limit > self.per))
        while live.size:
            start = out[live]
            span = max(1, min(_CHUNK // live.size, -(-int((limit[live] - start).max()) // self.per)))
            offsets = np.arange(0, span * self.per, self.per)
            diff = self._window((a[live] + start)[:, None] + offsets)
            diff ^= self._window((b[live] + start)[:, None] + offsets)
            first = (diff != 0).argmax(axis=1)
            at_first = diff[np.arange(live.size), first]
            gain = np.where(at_first == 0, span * self.per, offsets[first] + self._equal(at_first))
            out[live] = start + gain
            live = live[(at_first == 0) & (out[live] < limit[live])]
        return np.minimum(out, limit)


def _ranks(word: str) -> tuple[np.ndarray, int]:
    """The uint8 letter codes of a word, ranked 0, 1, ..., and their number."""
    raw = word.encode("ascii")
    ranks = np.cumsum(np.bincount(np.frombuffer(raw, np.uint8), minlength=256) > 0, dtype=np.uint8)
    return np.frombuffer(raw.translate((ranks - 1).tobytes()), np.uint8), int(ranks[-1])


def _windows(word: str) -> _Windows:
    """Windows of a word followed by its reversal, letters coded by rank."""
    return _Windows(*_ranks(word))


def _direct(planes: list[int], n: int, p: int, spacing: list[int], bound: int):
    """The direct scan on the bit planes of a word of n letters: the runs
    of w[i] == w[i + p + k] of at least spacing[k] letters that start at
    or before ``bound``, for p + k in turn until max(1, 4 * _CHUNK // n)
    periods had runs, and the number of periods scanned.  A bound below n
    cuts the planes to the letters such a run needs, bound + p + k +
    spacing[k] at most, the needs ascending.  One unpackbits pass gives
    the exact int64 (starts, periods, lengths): the carry of ``equal +
    starts`` ends past each run."""

    def equal_at(planes: list[int], width: int, shift: int) -> int:
        miss = 0  # bit i: letters i and i + shift differ, i < width - shift
        for plane in planes:
            miss |= plane ^ plane >> shift
        return ~miss & ((1 << (width - shift)) - 1)

    width = min(n, bound + p + len(spacing) + spacing[-1])
    cut = planes if width == n else [plane & ((1 << width) - 1) for plane in planes]
    keep, found = (1 << (bound + 1)) - 1 if bound < n else -1, []  # starts <= bound
    for k, d in enumerate(spacing):
        equal = equal_at(cut, width, p + k)
        runs, have = equal, 1  # runs: bit i when d letters from i are equal
        while 2 * have < d:
            runs &= runs >> have
            have *= 2
        runs &= runs >> (d - have)
        if starts := runs & ~(equal << 1) & keep:
            equal = equal if cut is planes else equal_at(planes, n, p + k)
            found.append((p + k, starts, (equal + starts) & ~equal))
            if len(found) >= 4 * _CHUNK // n:
                break
    periods, starts, ends = list(zip(*found)) or [(), (), ()]
    size = -(-n // 8)
    octets = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in starts + ends), np.uint8)
    rows, cols = np.unpackbits(octets.reshape(-1, size), axis=1, bitorder="little").nonzero()
    # One end a start, in order; copied starts let the ends go.
    starts, ends = cols.reshape(2, -1)
    periods = np.array(periods, np.int64)[rows[: starts.size]]
    return k + 1, (starts.copy(), periods, periods + ends - starts)


def _band_hits(windows: _Windows, n: int, p: int, need: np.ndarray, per: int, step: int, rows: int):
    """The anchors q = step - 1, 2 step - 1, ... (``rows`` of them) whose
    first ``per`` letters equal the ``per`` letters p + k later in the
    word: int64 (q, p + k, need[k], q - step if that anchor is a hit too,
    else -1), by period, q.  Both sides are views of the window array."""
    later = windows.view(per, p + step - 1, (need.size, rows), (1, step))
    equal = (later == windows.view(per, step - 1, (rows,), (step,))).ravel()  # row k: p + k letters on
    k, j = np.divmod(equal.nonzero()[0], rows)
    q = (j + 1) * step - 1
    before = np.where((j > 0) & equal[k * rows + j - 1], q - step, -1)
    inside = q + k <= n - per - p  # the later window in the word too
    return q[inside], p + k[inside], need[k[inside]], before[inside]


def _anchor_runs(windows: _Windows, n: int, p: int, spacing: np.ndarray, bound: int):
    """The number of periods scanned from p on, and the runs of at least
    ``spacing`` letters at them that start at or before ``bound`` (and
    maybe others), through the hits of bands up to 64 * _CHUNK anchor
    windows, adding no band once the chunk holds _CHUNK // 2 hits.  A band
    of needs in [d, 2d) compares windows of the first ``per`` letters, the
    widest power of 2 with 2 per - 1 <= d, 8 to windows.per; anchors d -
    per + 1 apart put a whole one in every run of d letters.  One LCE
    batch measures the first hit of each chain of hits, both ways, and a
    second the hits past the run of their chain's first; a run is
    reported by its first anchor, the one past the anchor before."""
    rows, left, held, hits = 0, 64 * _CHUNK, 0, []
    while rows < spacing.size and left > 0 and held < _CHUNK // 2:
        d = int(spacing[rows])
        per = min(windows.per, 1 << ((d + 1) // 2).bit_length() - 1)
        step = d - per + 1
        anchors = (min(n - p - rows - per, bound + step - 1) + 1) // step
        size = max(1, min(spacing[rows:].searchsorted(2 * d), left // anchors))
        hits.append(_band_hits(windows, n, p + rows, spacing[rows : rows + size], per, step, anchors))
        rows, left, held = rows + size, left - size * anchors, held + hits[-1][0].size
    q, period, need, before = map(np.concatenate, zip(*hits))
    head, index, (back, ahead) = before < 0, np.arange(q.size), np.zeros((2, q.size), np.int64)
    pick, measured = head, False
    while pick.any():
        at, shift = q[pick], period[pick]
        back[pick], ahead[pick] = windows.lce(
            np.concatenate((2 * n - at - shift, at)),
            np.concatenate((2 * n - at, at + shift)),
            np.concatenate((np.minimum(at, at - before[pick]), n - at - shift)),
        ).reshape(2, -1)
        measured |= pick
        pick = ~measured & (q >= (q + ahead)[np.maximum.accumulate(np.where(head, index, 0))])
    found = measured & (q - back > before) & (back + ahead >= need)  # first anchors
    return rows, ((q - back)[found], period[found], (period + back + ahead)[found])


def _runs(
    word: str,
    threshold: Callable[[], Fraction],
    strict: bool,
    last_start: Callable[[], int] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The maximal repetitions of ``word`` that meet the threshold, with
    exact lengths, as int64 (starts, periods, lengths) arrays for chunks of
    ascending periods, each run once, in any order inside a chunk.

    At period p a maximal run of w[i] == w[i+p] of L >= d = max(need(p), 1)
    letters is the occurrence (start, p, p + L).  ``threshold()`` is read
    again for each chunk, so a caller may raise it as it goes; a chunk
    may then hold runs below the raised threshold.  ``last_start()``, when
    given, is read for each chunk too: the chunk then reports every run
    that starts at or before it, and may report others; a ``last_start()``
    below 0 ends the scan.

    Periods with d < _CROSSOVER, and every period of a word of under
    _FLOOR letters, go to :func:`_direct`, the others to
    :func:`_anchor_runs`.  need(p) comes from a table of 2 * _CHUNK
    periods, computed again only when ``threshold()`` changes or a chunk
    would run past the table.
    """
    n, p, windows, table_thr, stop = len(word), 1, None, None, 0
    codes, letters = _ranks(word)
    bits = range(max(1, (letters - 1).bit_length()))  # bit i of plane b: bit b of code i
    planes = [int.from_bytes(np.packbits(codes & 1 << b, bitorder="little"), "little") for b in bits]
    while p < n and (bound := n if last_start is None else last_start()) >= 0:
        thr = threshold()
        if thr != table_thr or stop < min(p + _CHUNK, n):
            # need(p) for two chunks of periods, and p + need(p).
            table_thr, base, stop = thr, p, min(p + 2 * _CHUNK, n)
            need = _need(thr, strict, base, stop, n)
            ends = need + np.arange(base, stop)
        # The periods whose runs fit in the word: p + d <= n.
        spacing = need[p - base : p - base + _CHUNK]
        spacing = spacing[: ends[p - base : p - base + spacing.size].searchsorted(n, side="right")]
        if not spacing.size:
            return
        if direct := spacing.size if n < _FLOOR else int(spacing.searchsorted(_CROSSOVER)):
            rows, runs = _direct(planes, n, p, spacing[:direct].tolist(), bound)
        else:
            windows = windows or _Windows(codes, letters)
            rows, runs = _anchor_runs(windows, n, p, spacing, bound)
        yield runs
        p += rows


def _gather(batches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All batches of runs as one (starts, periods, lengths) triple."""
    columns = list(zip(*batches)) or [[np.zeros(0, np.int64)]] * 3
    return tuple(np.concatenate(column) for column in columns)


def _leftmost(starts, periods, lengths) -> tuple[int, int, int]:
    """The run with the smallest start, then the smallest period."""
    j = np.lexsort((periods, starts))[0]
    return int(starts[j]), int(periods[j]), int(lengths[j])


def smallest_period(word: str) -> int:
    """The least p >= 1 with word[i] == word[i+p] for all in-range i.

    That is n minus the longest proper border of the word, which the
    Knuth-Morris-Pratt failure function gives in O(n) letter comparisons.
    """
    if not word:
        raise ValueError("empty word has no period")
    # border[i]: the longest proper border of word[: i + 1].
    border, k = array("l", [0]) * len(word), 0
    for i in range(1, len(word)):
        letter = word[i]
        while k and word[k] != letter:
            k = border[k - 1]
        if word[k] == letter:
            k += 1
        border[i] = k
    return len(word) - k


def exponent_of(word: str) -> Fraction:
    """length / smallest_period, the exponent of the whole word."""
    return Fraction(len(word), smallest_period(word))


def max_exponent(word: str) -> tuple[Fraction, PowerOccurrence]:
    """The largest exponent over all factors and all their periods.

    Returns the exponent with one witnessing occurrence; ties are broken
    by smallest start, then smallest period.  Every nonempty word has
    maximum at least 1 (witnessed by a single letter).
    """
    if not word:
        raise ValueError("empty word has no factors")
    best_exp, best = Fraction(1), (0, 1, 1)
    # Each chunk is scanned at the best exponent found before it, which
    # skips every period that cannot beat it.
    for starts, periods, lengths in _runs(word, lambda: best_exp, False):
        above = lengths * best_exp.denominator > periods * best_exp.numerator
        if raised := bool(above.any()):
            top, per = 1, 1
            for length, period in zip(lengths[above].tolist(), periods[above].tolist()):
                if length * per > top * period:
                    top, per = length, period
            best_exp = Fraction(top, per)
        tied = lengths * best_exp.denominator == periods * best_exp.numerator
        if tied.any():
            found = _leftmost(starts[tied], periods[tied], lengths[tied])
            best = found if raised or found < best else best
    return best_exp, PowerOccurrence(*best)


def find_power(
    word: str, threshold: Fraction | int, strict: bool = False
) -> PowerOccurrence | None:
    """Leftmost repetition meeting the threshold, or None.

    With ``strict=False`` the witness has exponent >= threshold, with
    ``strict=True`` strictly above it.  Among qualifying occurrences the
    one with the smallest start wins, then the smallest period; its
    length is maximal for that (start, period) pair.
    """
    thr = _as_threshold(threshold)
    if word and thr == 1 and not strict:
        # Exponent 1 is reached by any single letter; extend at period 1.
        return PowerOccurrence(0, 1, len(word) - len(word.lstrip(word[0])))
    best = None
    # After a witness at start s, later chunks (larger periods) only need
    # the runs that start before s; a witness at start 0 ends the scan.
    for runs in _runs(word, lambda: thr, strict, lambda: len(word) if best is None else best[0] - 1):
        if runs[0].size:
            found = _leftmost(*runs)
            best = found if best is None else min(best, found)
    return None if best is None else PowerOccurrence(*best)


def is_power_free(word: str, threshold: Fraction | int, plus: bool = False) -> bool:
    """Whether no factor reaches the threshold.

    ``plus=False``: no factor of exponent >= threshold (threshold-power-
    free).  ``plus=True``: no factor of exponent > threshold (the "plus"
    form; overlap-free is ``is_power_free(w, 2, plus=True)``).
    """
    thr = _as_threshold(threshold)
    if thr == 1 and not plus:
        return not word
    return not any(starts.size for starts, _, _ in _runs(word, lambda: thr, plus))


def _end_runs(word: str) -> np.ndarray:
    """run(p) for p = 1 .. n: how many of the last letters of ``word``
    equal the letter p positions before them, so that its suffix of
    p + run(p) letters has period p (run(n) = 0).  One backward LCE
    query a period, all in one pass: forward in the reversal, which the
    windows hold from offset n."""
    n = len(word)
    periods = np.arange(1, n + 1, dtype=np.int64)
    return _windows(word).lce(np.full(n, n, np.int64), n + periods, n - periods)


def _pack(values: np.ndarray, width: int) -> int:
    """The int whose ``width``-bit field i holds values[i] (0 <= values[i]
    < 2**width <= 2**64)."""
    octets = values.astype("<u8").view(np.uint8).reshape(-1, 8)[:, : -(-width // 8)]
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :width]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _free_words(word: str, threshold: Fraction | int, plus: bool, max_length: int) -> Iterator[str]:
    """``word``, which must be free, and its binary extensions of at most
    ``max_length`` letters with ``is_power_free(w, threshold, plus)``,
    depth first, each length in lexicographic order.  Every prefix of a
    free word is free, so the words grow letter by letter, keeping w + a
    when no power ends at its last letter.

    That end test is a few big-int operations on two ints carried with
    each word w of n letters, one ``width``-bit field a period p <= n:
    field p - 1 of ``codes`` holds w[n - p] (1 for "1", 2 for "0"), and
    field p - 1 of ``deficits`` holds guard + need(p) - run(p) - 1, with
    run(p) as in :func:`_end_runs`.  The fields where a equals w[n - p]
    are the periods whose run grows; the others drop to run 0.  A power
    ends at the new letter exactly when a growing field had deficit 1, so
    subtracting 1 from the growing fields clears its guard bit; every
    field of a free word holds its guard, so no borrow crosses a field.
    The start word's runs come from backward LCE; the need table, clamped
    to max_length + 1 so that the fields stay ``width`` bits, covers twice
    the longest word reached: it follows the depth a search reaches,
    never its cap."""
    thr, n = _as_threshold(threshold), len(word)
    # No word reaches 2**61 letters: the clamp keeps the fields in int64.
    limit = min(max_length, 1 << 61)
    width = limit.bit_length() + 1
    guard = 1 << (width - 1)
    letters = np.frombuffer(word[::-1].encode("ascii"), np.uint8)
    codes = _pack((letters == ord("1")) + 2 * (letters == ord("0")), width)
    deficits = _pack(guard - 1 + _need(thr, plus, 1, n + 1, limit) - _end_runs(word), width)
    stack, covered = [(word, codes, deficits)], 0
    while stack:
        current, codes, deficits = stack.pop()
        yield current
        if (n := len(current)) < max_length:
            if n >= covered:
                covered = 2 * (n + 1)
                ones = _pack(np.ones(covered, np.int64), width)
                fresh = _pack(guard - 1 + _need(thr, plus, 1, covered + 1, limit), width)
            # 1 first, so 0 comes out first.
            for letter, code, grows in (("1", 1, codes & ones), ("0", 2, codes >> 1 & ones)):
                full = (grows << width) - grows
                kept = (deficits & full) - grows
                if kept >> (width - 1) & grows == grows:
                    stack.append((current + letter, codes << width | code, kept | fresh & ~full))


def list_repetitions(
    word: str, min_exponent: Fraction | int, strict: bool = False
) -> list[PowerOccurrence]:
    """All maximal repetitions meeting the threshold, sorted by
    (start, period).

    An occurrence is maximal when it cannot be extended left or right at
    the same period; there is at most one per (start, period) pair.  Only
    factors longer than their period are reported.
    """
    thr = _as_threshold(min_exponent)
    starts, periods, lengths = _gather(_runs(word, lambda: thr, strict))
    order = np.lexsort((periods, starts))
    rows = zip(starts[order].tolist(), periods[order].tolist(), lengths[order].tolist())
    return [PowerOccurrence(*row) for row in rows]
