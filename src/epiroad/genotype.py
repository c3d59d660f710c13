"""Variable-length genotypes over an integer alphabet and their edit neighborhood.

Letters are integers in ``range(n_letters)``; a genotype is a tuple of
letters, or ``bytes`` (one letter per byte) in the EA. A block is a
contiguous run of at least ``b`` copies of one letter; only the presence of
a block counts, never its position or multiplicity.

The edit neighborhood of a genotype of length ``lam`` is an operation
multiset of size ``(2 * lam + 1) * n_letters``: every insertion
((lam + 1) * n_letters of them), and at each position the n_letters - 1
substitutions by a different letter plus one deletion. Identical resulting
strings produced by different operations are kept as distinct neighbors, so
the count holds exactly for every genotype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Genotype = tuple[int, ...]

# Sentinel used to pad rows of neighbor matrices; never a valid letter.
PAD = -1

# block_ends reads letters as byte lanes whose top bit must stay clear.
LANE_LETTERS = 128
_ALPHABETS = [bytes(range(n)) for n in range(LANE_LETTERS + 1)]
_HIGH = bytes(range(LANE_LETTERS, 256))
_LANES: dict[int, tuple[int, int]] = {}  # length -> (0x7F in every lane, 0x80 in every lane)

# Display letters for text round-trips, DNA-style first four.
DISPLAY_LETTERS = "ATGCBDEFHIJKLMNOPQRSUVWXYZ"


@dataclass(frozen=True)
class BlockParams:
    """Alphabet size, block size and maximum genotype length of a landscape."""

    n_letters: int
    b: int
    lambda_max: int

    def __post_init__(self):
        if self.n_letters < 1:
            raise ValueError(f"n_letters must be >= 1, got {self.n_letters}")
        if self.b < 1:
            raise ValueError(f"block size b must be >= 1, got {self.b}")
        if self.lambda_max < self.n_letters * self.b:
            raise ValueError(
                f"lambda_max={self.lambda_max} cannot hold one block per letter "
                f"(needs >= n_letters * b = {self.n_letters * self.b})"
            )


def validate_genotype(g, n_letters: int) -> None:
    for s in g:
        if not 0 <= s < n_letters:
            raise ValueError(f"letter {s} outside alphabet of size {n_letters}")


def has_block(g, letter: int, b: int) -> bool:
    """True iff some contiguous run of at least ``b`` copies of ``letter`` exists."""
    if b < 1:
        raise ValueError(f"block size b must be >= 1, got {b}")
    run = 0
    for s in g:
        if s == letter:
            run += 1
            if run >= b:
                return True
        else:
            run = 0
    return False


def block_ends(x: bytes, b: int) -> bytes:
    """The letters of ``x`` that end a run of at least ``b`` copies, in order.

    Their set is the genotype's blocks. There are no checks: every letter must
    be below LANE_LETTERS and ``b`` at least 1. The letters are read as the
    byte lanes of one Python int X, first letter highest, and all lanes are
    tested at once. Lane c of ``ne`` has its top bit set when letter c
    differs from letter c - 1: 0x7F is added to each lane of
    ``X ^ (X >> 8)``, which cannot carry while letters stay below
    LANE_LETTERS = 128. A block ends at lane c >= b - 1 when none of lanes
    c - b + 2 .. c differs from its predecessor, so ORing ``ne`` with its
    shifts down by 1 to b - 2 lanes sets the top bit of every other lane;
    those lanes and the first b - 1 are dropped, and the letters left each
    end a block. With b = 1 every letter ends one, and ``x`` is returned.
    """
    lam = len(x)
    if b == 1 or lam < b:
        return x if b == 1 else b""
    try:
        k7f, k80 = _LANES[lam]
    except KeyError:
        k7f, k80 = _LANES[lam] = (int.from_bytes(b"\x7f" * lam, "big"),
                                  int.from_bytes(b"\x80" * lam, "big"))
    X = int.from_bytes(x, "big")
    ne = ((X ^ (X >> 8)) + k7f) & k80
    m = ne
    for s in range(8, 8 * (b - 1), 8):
        m |= ne >> s
    return (X | m).to_bytes(lam, "big")[b - 1 :].translate(None, _HIGH)


def block_bits(g, n_letters: int, b: int) -> int:
    """Packed block vector: bit for letter ``l`` at position n_letters - 1 - l.

    Letter 0 therefore occupies the most significant bit, so the packed value
    orders block vectors lexicographically.

    ``g`` is ``bytes`` (the EA's genotypes) or any iterable of int letters.
    After the checks, ``block_ends`` finds the letters that end a block, and
    their bits are ORed.
    """
    if n_letters > LANE_LETTERS:
        raise ValueError(f"n_letters={n_letters} exceeds the byte lanes' {LANE_LETTERS}")
    x = g
    if type(g) is not bytes:
        g = tuple(g)  # a numpy row gives its scalars, not its buffer
        try:
            x = bytes(g)
        except ValueError:  # a letter outside 0..255, PAD among them
            validate_genotype(g, n_letters)
            raise
    if x.translate(None, _ALPHABETS[n_letters]):
        validate_genotype(g, n_letters)  # names the first foreign letter
    if b < 1:
        raise ValueError(f"block size b must be >= 1, got {b}")
    bits = 0
    for c in set(block_ends(x, b)):
        bits |= 1 << (n_letters - 1 - c)
    return bits


def block_vector(g, n_letters: int, b: int) -> tuple[int, ...]:
    """Bit per letter: 1 iff the genotype holds a block of that letter."""
    bits = block_bits(g, n_letters, b)
    return tuple((bits >> (n_letters - 1 - l)) & 1 for l in range(n_letters))


def block_count(g, n_letters: int, b: int) -> int:
    return block_bits(g, n_letters, b).bit_count()


def enumerate_neighbors(g: Genotype, n_letters: int) -> list[Genotype]:
    """All (2*len(g) + 1) * n_letters operation-neighbors, as a list.

    Order: insertions (gap-major, letter-minor), substitutions, deletions.
    """
    lam = len(g)
    out = []
    for gap in range(lam + 1):
        head, tail = g[:gap], g[gap:]
        for c in range(n_letters):
            out.append(head + (c,) + tail)
    for p in range(lam):
        head, tail = g[:p], g[p + 1 :]
        for c in range(n_letters):
            if c != g[p]:
                out.append(head + (c,) + tail)
    for p in range(lam):
        out.append(g[:p] + g[p + 1 :])
    return out


def neighbor_count(lam: int, n_letters: int) -> int:
    return (2 * lam + 1) * n_letters


def neighbor_matrix(g, n_letters: int, lambda_max: int | None = None) -> np.ndarray:
    """Operation-neighbors as a padded int16 matrix of width len(g) + 1.

    Rows are padded with PAD on the right. When ``lambda_max`` is given and
    the genotype sits at that cap, insertion rows are omitted (they would
    leave the bounded search space); otherwise all (2*lam + 1) * n_letters
    rows are present. Row order differs from :func:`enumerate_neighbors`
    (deletions sit in the incumbent-letter substitution slots) but the
    multiset of rows is identical.
    """
    lam = len(g)
    n = n_letters
    include_ins = lambda_max is None or lam < lambda_max
    w = lam + 1
    garr = np.asarray(g, dtype=np.int16) if lam else np.empty(0, np.int16)
    gx = np.concatenate([garr, np.full(2, PAD, np.int16)])
    cols = np.arange(w)
    parts = []
    if include_ins:
        gaps = np.repeat(np.arange(lam + 1), n)
        letters = np.tile(np.arange(n, dtype=np.int16), lam + 1)
        ins = np.where(cols[None, :] < gaps[:, None], gx[cols], gx[cols - 1])
        ins[np.arange(len(gaps)), gaps] = letters
        parts.append(ins)
    if lam:
        pos = np.repeat(np.arange(lam), n)
        letters = np.tile(np.arange(n, dtype=np.int16), lam)
        base = np.concatenate(
            [np.broadcast_to(garr, (lam * n, lam)), np.full((lam * n, 1), PAD, np.int16)],
            axis=1,
        )
        base[np.arange(lam * n), pos] = letters
        incumbent = letters == garr[pos]
        if incumbent.any():
            dels = np.where(cols[None, :] < np.arange(lam)[:, None], gx[cols], gx[cols + 1])
            base[incumbent] = dels[pos[incumbent]]
        parts.append(base)
    if not parts:
        return np.empty((0, w), np.int16)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def row_to_genotype(row: np.ndarray) -> Genotype:
    out = []
    for v in row:
        if v == PAD:
            break
        out.append(int(v))
    return tuple(out)


def decode_rows(u: np.ndarray, n_letters: int, max_len: int):
    """(rows, lams): one genotype per row of uniforms, as a ``(W, max_len + 2)`` PAD matrix.

    Row w has length ``lam = int(u[w, 0] * (max_len + 1))``, uniform on
    0..max_len, and letters ``int(u[w, i] * n_letters)`` for i in 1..lam;
    ``u`` has at least ``1 + max_len`` columns. Walk starts and the EA's
    initial population are decoded here.
    """
    lams = (u[:, 0] * (max_len + 1)).astype(np.int64)
    rows = np.full((len(u), max_len + 2), PAD, np.int16)
    letters = (u[:, 1 : max_len + 1] * n_letters).astype(np.int16)
    rows[:, :max_len] = np.where(np.arange(max_len) < lams[:, None], letters, PAD)
    return rows, lams


def block_bits_batch(rows: np.ndarray, n_letters: int, b: int) -> np.ndarray:
    """Packed block vectors for every row of a padded genotype matrix.

    A block starts at column j when it holds a letter, not PAD, and each of
    the next b - 1 columns equals its predecessor; those columns are found by
    ANDing b - 1 shifted slices of one adjacent-equality mask. Each start's
    letter is marked in an ``(m, n_letters)`` presence matrix, whose product
    with the letters' bits is the packed vector. PAD never equals a letter,
    so padding cannot extend a run. With b = 1 every letter is a block, and
    the rows' letter bits are ORed directly.
    """
    m, w = rows.shape
    if m == 0 or w < b:
        return np.zeros(m, np.int64)
    lut = _letter_lut(n_letters)
    if b == 1:
        return np.bitwise_or.reduce(lut[rows], axis=1)
    span = w - b + 1
    eq = rows[:, 1:] == rows[:, :-1]
    start = rows[:, :span] != PAD
    for s in range(b - 1):
        start &= eq[:, s : s + span]
    at = np.flatnonzero(start)
    row = at // span
    present = np.zeros((m, n_letters), bool)
    present[row, rows.ravel()[at + row * (b - 1)]] = True
    return present @ lut[:n_letters]


@lru_cache(maxsize=None)
def _letter_lut(n_letters: int) -> np.ndarray:
    """Each letter's bit in a packed block vector, then a 0 that PAD (-1) and letter n read."""
    lut = np.append(np.left_shift(1, np.arange(n_letters - 1, -1, -1, dtype=np.int64)), 0)
    lut.flags.writeable = False  # the cache hands this one array to every caller
    return lut


def random_neighbor(
    g: Genotype, n_letters: int, rng: np.random.Generator, lambda_max: int | None = None
) -> Genotype:
    """One neighbor drawn uniformly from the (2*lam + 1) * n_letters operations.

    Insertions that would exceed ``lambda_max`` are rejected and the
    operation re-drawn, which leaves the draw uniform over feasible moves.
    """
    lam = len(g)
    n = n_letters
    if lam == 0 and lambda_max is not None and lambda_max < 1:
        raise ValueError("the empty genotype has no feasible neighbor under lambda_max=0")
    total = (2 * lam + 1) * n
    while True:
        op = int(rng.integers(total))
        if op < (lam + 1) * n:
            gap, letter = divmod(op, n)
            if lambda_max is not None and lam >= lambda_max:
                continue
            return g[:gap] + (letter,) + g[gap:]
        p, r = divmod(op - (lam + 1) * n, n)
        if r == n - 1:
            return g[:p] + g[p + 1 :]
        letter = r if r < g[p] else r + 1
        return g[:p] + (letter,) + g[p + 1 :]


def random_genotype(max_len: int, n_letters: int, rng: np.random.Generator) -> Genotype:
    """Length uniform on {0..max_len}, letters i.i.d. uniform."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    lam = int(rng.integers(max_len + 1))
    if lam == 0:
        return ()
    return tuple(rng.integers(0, n_letters, size=lam).tolist())


def edit_distance(a, b) -> int:
    """Levenshtein distance between two genotypes."""
    a, b = tuple(a), tuple(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, sa in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, sb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (sa != sb))
        prev = cur
    return prev[len(b)]


def to_text(g, n_letters: int) -> str:
    """Letter string for alphabets up to 26 letters, comma-joined indices above."""
    validate_genotype(g, n_letters)
    if n_letters <= len(DISPLAY_LETTERS):
        return "".join(DISPLAY_LETTERS[s] for s in g)
    return ",".join(str(s) for s in g)


def from_text(text: str, n_letters: int) -> Genotype:
    if n_letters <= len(DISPLAY_LETTERS):
        try:
            g = tuple(DISPLAY_LETTERS.index(c) for c in text)
        except ValueError:
            raise ValueError(f"unknown letter in {text!r}") from None
    else:
        g = tuple(int(tok) for tok in text.split(",")) if text else ()
    validate_genotype(g, n_letters)
    return g
