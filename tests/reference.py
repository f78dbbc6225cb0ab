"""The slow references of the package, each written once from the paper's
definitions: a reference scans, slices and counts, and calls no kernel of the
package.  It is no test module, so pytest does not collect it; the tests
import it, and ``test_kernels.KERNELS`` pairs each private kernel with its
reference here.  A polynomial reference is a dict from sparse monomials,
tuples of (letter, exponent > 0) pairs sorted by letter, to ints;
:func:`derive` alone uses ``Poly`` arithmetic, which those references check.
"""
import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

from stirlab.polynomials import Poly


def word(s: str) -> tuple[int, ...]:
    """The word of one-digit letters spelled by s: word("1221")."""
    return tuple(int(c) for c in s)


def xyz(i: int, j: int, k: int, c: int = 1) -> Poly:
    """The term c x^i y^j z^k over ("x", "y", "z")."""
    return Poly(("x", "y", "z"), {(i, j, k): c})


# ---------------------------------------------------------------------------
# the object classes


def insert_pairs(gaps) -> tuple[int, ...]:
    """The word of Q_n built by pair insertion: for v = 1..n, (v, v) goes
    into gap gaps[v - 1] of the 2v - 1 gaps of the word so far, counted
    from the right end, so all-zero gaps build (1, 1, 2, 2, ...)."""
    letters: list[int] = []
    for g in gaps:
        letters[len(letters) - g:len(letters) - g] = (len(letters) // 2 + 1,) * 2
    return tuple(letters)


@functools.lru_cache(maxsize=None)
def stirling_words(n: int) -> tuple[tuple[int, ...], ...]:
    """Q_n in pair-insertion order: the gaps in lexicographic order, the last
    varying fastest."""
    return tuple(map(insert_pairs, itertools.product(*(range(2 * v - 1) for v in range(1, n + 1)))))


SAMPLED_ORDERS = (8, 12, 20, 40)


@functools.lru_cache(maxsize=None)
def sampled_words(n: int) -> tuple[tuple[int, ...], ...]:
    """100 words of Q_n from uniform gap draws, seeded by n; each word has
    one sequence of gaps, so the draw is uniform on Q_n."""
    rng = random.Random(n)
    return tuple(insert_pairs([rng.randrange(2 * v - 1) for v in range(1, n + 1)])
                 for _ in range(100))


def is_stirling(letters) -> bool:
    """The defining property: the multiset {1,1,...,n,n}, and every letter
    strictly between the two copies of v larger than v."""
    letters = tuple(letters)
    n = len(letters) // 2
    if any(type(v) is not int for v in letters):  # a bool is not a letter
        return False
    if sorted(letters) != sorted(2 * [*range(1, n + 1)]):
        return False
    for v in range(1, n + 1):
        first = letters.index(v)
        if any(u <= v for u in letters[first + 1:letters.index(v, first + 1)]):
            return False
    return True


def odd_double_factorial(n: int) -> int:
    """(2n-1)!! = (2n)! / (2^n n!), the size of Q_n and of the matchings of [2n]."""
    return math.factorial(2 * n) // (2 ** n * math.factorial(n))


def signed_words(n: int) -> list[tuple[int, ...]]:
    """B_n: every permutation of [n] under every choice of signs."""
    return [tuple(s * v for s, v in zip(signs, perm))
            for perm in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)]


def matchings(n: int):
    """The perfect matchings of [2n]: the least element paired with each other
    one in increasing order, then the rest matched, recursively."""
    def rec(elems):
        if not elems:
            yield ()
        for i in range(1, len(elems)):
            for tail in rec(elems[1:i] + elems[i + 1:]):
                yield ((elems[0], elems[i]),) + tail

    return rec(tuple(range(1, 2 * n + 1)))


SAMPLED_OBJECT_ORDERS = range(8, 13)


@functools.lru_cache(maxsize=None)
def sampled_objects(klass: str, n: int) -> tuple:
    """100 objects of order n of the class "signed", "matching" or
    "permutation", seeded by the class and n: a uniform permutation of [n],
    under uniform signs for B_n, or a uniform shuffle of [2n] paired two by
    two, so a matching's blocks and each block's entries come in any order."""
    rng = random.Random(f"{klass} {n}")
    if klass == "matching":
        shuffles = (rng.sample(range(1, 2 * n + 1), 2 * n) for _ in range(100))
        return tuple(tuple(zip(e[::2], e[1::2])) for e in shuffles)
    perms = (rng.sample(range(1, n + 1), n) for _ in range(100))
    if klass == "signed":
        return tuple(tuple(rng.choice((1, -1)) * v for v in perm) for perm in perms)
    return tuple(map(tuple, perms))


def set_partitions(n: int):
    """Every set partition of [n], as a list of blocks."""
    partitions = [[]]
    for e in range(n):
        joined = [p[:i] + [p[i] + [e]] + p[i + 1:] for p in partitions for i in range(len(p))]
        partitions = joined + [p + [[e]] for p in partitions]
    return partitions


# ---------------------------------------------------------------------------
# statistics, each from the padded word p = (0, sigma_1, ..., sigma_2n, 0)


def index_sets(w) -> dict[str, frozenset[int]]:
    """The double-ascent, descent-plateau and left ascent-plateau positions
    i = 1..len(w) of any word of ints: a double ascent is p_(i-1) < p_i <
    p_(i+1), a plateau p_i = p_(i+1) is a left ascent-plateau after an
    ascent p_(i-1) < p_i and a descent-plateau otherwise."""
    p = (0, *w, 0)
    kinds = {"dasc": set(), "dp": set(), "lap": set()}
    for i in range(1, len(w) + 1):
        if p[i - 1] < p[i] < p[i + 1]:
            kinds["dasc"].add(i)
        elif p[i] == p[i + 1]:
            kinds["lap" if p[i - 1] < p[i] else "dp"].add(i)
    return {k: frozenset(s) for k, s in kinds.items()}


def stirling_stats(w) -> dict[str, int]:
    """The eight Stirling statistics, each counted on its own: ascents over
    the padded pairs 0..2n-1, descents over 1..2n, plateaus over 1..2n-1; an
    ascent-plateau is a left ascent-plateau past position 1, and fap counts
    the ascent-plateaus twice and a leading plateau once."""
    p, m = (0, *w, 0), len(w)
    s = index_sets(w)
    ap = sum(1 for i in s["lap"] if i >= 2)
    return dict(asc=sum(p[i] < p[i + 1] for i in range(0, m)),
                des=sum(p[i] > p[i + 1] for i in range(1, m + 1)),
                plat=sum(p[i] == p[i + 1] for i in range(1, m)),
                ap=ap, lap=len(s["lap"]), fap=2 * ap + (1 if m >= 2 and w[0] == w[1] else 0),
                dasc=len(s["dasc"]), dp=len(s["dp"]))


def des(values) -> int:
    """The descents i = 1..n-1 of a word, pi(i) > pi(i+1)."""
    return sum(values[i] > values[i + 1] for i in range(len(values) - 1))


def signed_stats(values) -> dict[str, int]:
    """desA counts the descents of pi(1..n), desB those of pi(0..n) with
    pi(0) = 0, fdes = desA + desB, and fasc = 2 ascA + [pi(1) > 0] from the
    ascents of pi(1..n)."""
    asc_a = sum(values[i] < values[i + 1] for i in range(len(values) - 1))
    des_a, des_b = des(values), des((0, *values))
    return dict(desA=des_a, desB=des_b, fdes=des_a + des_b,
                fasc=2 * asc_a + (values[0] > 0))


def matching_stats(blocks) -> dict[str, int]:
    """el and ol: the even and the odd elements of [2n] that close a block."""
    closers = {max(b) for b in blocks}
    top = 2 * len(blocks)
    return dict(el=sum(e in closers for e in range(2, top + 1, 2)),
                ol=sum(e in closers for e in range(1, top + 1, 2)))


# ---------------------------------------------------------------------------
# the letter moves, from the slice-built slides


def slid_left(w, first, v):
    """The letter v at 0-based index first, moved to just after the rightmost
    smaller entry to its left (the front when there is none)."""
    k = first
    while k and w[k - 1] >= v:
        k -= 1
    return w[:k] + (v,) + w[k:first] + w[first + 1:]


def slid_right(w, first, other):
    """The letter at 0-based index first, moved to just after index other."""
    return w[:first] + w[first + 1:other + 1] + (w[first],) + w[other + 1:]


def toggled(w, v):
    """Foata and Strehl's toggle of v: its first copy on a double ascent
    slides right past the second copy, on a descent-plateau slides left; a
    value on neither is fixed."""
    first = w.index(v)
    s = index_sets(w)
    if first + 1 in s["dasc"]:
        return slid_right(w, first, w.index(v, first + 1))
    if first + 1 in s["dp"]:
        return slid_left(w, first, v)
    return w


def fs_action(w, values):
    return functools.reduce(toggled, sorted(values), w)


def beta_first(w, x) -> int:
    """The 0-based index of the first x when its beta move, the left slide of
    that copy, changes the word; 0 when it does not."""
    first = w.index(x)
    return first if slid_left(w, first, x) != w else 0


def beta_fixes(w, x) -> bool:
    return all(slid_left(w, w.index(y), y) == w for y in range(1, x + 1))


def free_values(w):
    """The values at the double ascents, increasing; None with a descent-plateau."""
    s = index_sets(w)
    return None if s["dp"] else sorted(w[i - 1] for i in s["dasc"])


def representative(w):
    """The member of w's orbit with no descent-plateau: every value on one
    toggled off."""
    return fs_action(w, {w[i - 1] for i in index_sets(w)["dp"]})


def orbit_walk(w):
    """The orbit of w in Gray-code order from its representative: member k
    toggles free value v_t on or off from member k - 1, t the lowest set bit
    of k, so member k has the toggles of the set bits of k ^ (k >> 1) on."""
    member = representative(w)
    values = free_values(member)
    yield member
    for k in range(1, 2 ** len(values)):
        member = toggled(member, values[(k & -k).bit_length() - 1])
        yield member


def alpha(w):
    """w without the first copy of each value."""
    return tuple(v for i, v in enumerate(w) if v in w[:i])


@functools.lru_cache(maxsize=None)
def normalized(n: int) -> dict:
    """Each normalized word of Q_n (dp = 0 and lap + dasc = n) keyed by its
    alpha image."""
    return {alpha(w): w for w in stirling_words(n)
            if (r := lap_dasc_dp(w))[2] == 0 and r[0] + r[1] == n}


def alpha_inverse_trace(pi):
    """(doubled word, descent-bottom values, normalized word) of the inverse
    of alpha at a permutation pi: the normalized word is the one that alpha
    maps to pi, found among all of Q_n."""
    bottoms = frozenset(b for a, b in zip(pi, pi[1:]) if a > b)
    return tuple(v for v in pi for _ in range(2)), bottoms, normalized(len(pi))[tuple(pi)]


# ---------------------------------------------------------------------------
# the recurrences in gather form: each entry of row n summed from the row
# before, read as 0 off it; row n has len(prev) + 1 entries per axis (T: + 2)


def dense(size, dims, terms):
    """The dense row over index sums below size (for dims = 1, a list of
    size entries) holding terms, a dict from index tuples to values."""
    def grid(depth, left):
        return [0] * left if depth == 1 else [grid(depth - 1, left - i) for i in range(left)]

    row = grid(dims, size)
    for (*outer, last), c in terms.items():
        functools.reduce(list.__getitem__, outer, row)[last] = c
    return row


def terms(row, *index):
    """The nonzero entries of a dense row keyed by index tuples, as dense
    takes them."""
    if isinstance(row, int):
        return {index: row} if row else {}
    return {key: c for i, line in enumerate(row) for key, c in terms(line, *index, i).items()}


def _at(row, *index):
    for i in index:
        if not 0 <= i < len(row):
            return 0
        row = row[i]
    return row


def eulerian_step(prev, n):
    # A_n[k] = (k+1) A_(n-1)[k] + (n-k) A_(n-1)[k-1]
    return [(k + 1) * _at(prev, k) + (n - k) * _at(prev, k - 1) for k in range(len(prev) + 1)]


def b_eulerian_step(prev, n):
    # B_n[k] = (2k+1) B_(n-1)[k] + (2(n-k)+1) B_(n-1)[k-1]
    return [(2 * k + 1) * _at(prev, k) + (2 * (n - k) + 1) * _at(prev, k - 1)
            for k in range(len(prev) + 1)]


def stirling2_step(prev, n):
    # S(n, k) = k S(n-1, k) + S(n-1, k-1)
    return [k * _at(prev, k) + _at(prev, k - 1) for k in range(len(prev) + 1)]


def t_step(prev, n):
    # T(n, k) = k T(n-1, k) + T(n-1, k-1) + (2n-k) T(n-1, k-2)
    return [k * _at(prev, k) + _at(prev, k - 1) + (2 * n - k) * _at(prev, k - 2)
            for k in range(len(prev) + 2)]


def c_step(prev, n):
    # C_n[k] = k C_(n-1)[k] + (2n-k) C_(n-1)[k-1]
    return [k * _at(prev, k) + (2 * n - k) * _at(prev, k - 1) for k in range(len(prev) + 1)]


def n_step(prev, n):
    # N_n[k] = 2k N_(n-1)[k] + (2n+1-2k) N_(n-1)[k-1]
    return [2 * k * _at(prev, k) + (2 * n + 1 - 2 * k) * _at(prev, k - 1)
            for k in range(len(prev) + 1)]


def p_step(prev, n):
    # P_n(i,j,k) = i P(i,j-1,k) + i P(i,j,k-1) + (j+1) P(i-1,j+1,k)
    #            + (k+1) P(i-1,j,k+1) + (2n+1-2i-j-k) P(i-1,j,k), P = P_(n-1)
    size = len(prev) + 1
    return [[[i * _at(prev, i, j - 1, k) + i * _at(prev, i, j, k - 1)
              + (j + 1) * _at(prev, i - 1, j + 1, k) + (k + 1) * _at(prev, i - 1, j, k + 1)
              + (2 * n + 1 - 2 * i - j - k) * _at(prev, i - 1, j, k)
              for k in range(size - i - j)] for j in range(size - i)] for i in range(size)]


def gamma_step(prev, n):
    # gamma_n(i,j) = i gamma(i,j-1) + 2(j+1) gamma(i-1,j+1)
    #              + (2n+1-2i-j) gamma(i-1,j), gamma = gamma_(n-1)
    size = len(prev) + 1
    return [[i * _at(prev, i, j - 1) + 2 * (j + 1) * _at(prev, i - 1, j + 1)
             + (2 * n + 1 - 2 * i - j) * _at(prev, i - 1, j)
             for j in range(size - i)] for i in range(size)]


# ---------------------------------------------------------------------------
# distributions, counted over whole classes


def permutations(n: int):
    return itertools.permutations(range(1, n + 1))


STREAMS = {"stirling": stirling_words, "signed": signed_words, "matching": matchings,
           "permutation": permutations}
SCANS = {"stirling": stirling_stats, "signed": signed_stats, "matching": matching_stats,
         "permutation": lambda pi: {"des": des(pi)}}


def enumerate_line(klass: str, n: int, obj, fmt: str) -> str:
    """One line of ``stirlab enumerate``, as docs/stirlab.1 describes it:
    plain letters concatenated up to n = 9 and space-separated beyond, a
    matching's pairs as "{1,2},{3,4}"; CSV letters joined by commas, a
    matching's pairs as "1:2,3:4"; JSON an array, a matching's of pairs."""
    if fmt == "json":
        return json.dumps([list(b) for b in obj] if klass == "matching" else list(obj))
    if klass == "matching":
        return ",".join(f"{a}:{b}" if fmt == "csv" else f"{{{a},{b}}}" for a, b in obj)
    return ("," if fmt == "csv" else " " if n > 9 else "").join(str(v) for v in obj)


def counts(stat, objects) -> dict:
    """The number of objects at each value of stat."""
    return dict(Counter(map(stat, objects)))


def full_counts(klass: str, n: int, names) -> dict:
    """The number of objects of order n at each record of the statistics
    names, in that order."""
    return counts(lambda o: tuple(SCANS[klass](o)[s] for s in names), STREAMS[klass](n))


def stat_counts(name: str, n: int) -> dict:
    """The number of words of Q_n at each value of the statistic name."""
    return counts(lambda w: stirling_stats(w)[name], stirling_words(n))


def lap_dasc_dp(w) -> tuple[int, int, int]:
    r = stirling_stats(w)
    return r["lap"], r["dasc"], r["dp"]


def gamma_counts(n: int) -> dict:
    """gamma_(n,i,j): the orbit representatives of Q_n (dp = 0) with lap = i
    and dasc = j, since an orbit has 2^dasc members of one lap."""
    return counts(lambda w: lap_dasc_dp(w)[:2],
                  (w for w in stirling_words(n) if not index_sets(w)["dp"]))


# ---------------------------------------------------------------------------
# polynomials as sparse dicts


def poly(names, terms):
    """The sparse reference of (exponent tuple over names, coefficient) terms."""
    acc = {}
    for e, c in terms:
        m = tuple((v, k) for v, k in sorted(zip(names, e)) if k)
        acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def sparse(p):
    """A Poly as its sparse reference."""
    return poly(p.names, p.terms.items())


def add(*polys):
    acc = {}
    for a in polys:
        for m, c in a.items():
            acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def _mono_mul(m1, m2):
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mul(a, b):
    return add(*({_mono_mul(m1, m2): u * v} for m1, u in a.items() for m2, v in b.items()))


def partial(a, letter):
    out = {}
    for m, c in a.items():
        e = dict(m).get(letter, 0)
        if e:
            rest = tuple((v, k - (v == letter)) for v, k in m if k - (v == letter))
            out[rest] = c * e
    return out


def _text(ordered):
    """Text of (((letter, exponent), ...), coefficient) terms in the given order."""
    parts = []
    for factors, c in ordered:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in factors)
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
        sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def sparse_str(a):
    """Text in the Poly print order: by degree, then by sparse monomial."""
    return _text(sorted(a.items(), key=lambda t: (sum(e for _, e in t[0]), t[0])))


def x_lines(cs, fmt):
    """The output of a family in x with coefficients cs of x^0, x^1, ...:
    JSON lists every coefficient up to the degree, CSV the nonzero ones."""
    if fmt == "plain":
        return _text(((("x", k),) if k else (), c) for k, c in enumerate(cs) if c) + "\n"
    if fmt == "json":
        return json.dumps({"var": "x", "coeffs": [str(c) for c in cs]}) + "\n"
    rows = [f"{k},{c}" for k, c in enumerate(cs) if c]
    return "\n".join(["k,coeff", *rows]) + "\n"


def tri_lines(terms, fmt):
    """The P/G row output of {(i, j, k): c}: by degree, then by exponent triple."""
    ordered = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]))
    if fmt == "plain":
        return _text((tuple((v, p) for v, p in zip("xyz", e) if p), c) for e, c in ordered) + "\n"
    if fmt == "json":
        return json.dumps([{"e": list(e), "c": str(c)} for e, c in ordered]) + "\n"
    rows = [f"{i},{j},{k},{c}" for (i, j, k), c in ordered]
    return "\n".join(["i,j,k,coeff", *rows]) + "\n"


def series_product(fs, gs):
    """The binomial convolution of two series sum f_n(x) t^n / n! of Poly
    coefficients in x: multiplied as ordinary series of Fraction coefficients
    divided by n!, the factorials restored after."""
    def divided(n, p):
        (top,) = max(p.terms, default=(-1,))
        return [Fraction(p.coefficient(k), math.factorial(n)) for k in range(top + 1)]

    fd, gd = [divided(*t) for t in enumerate(fs)], [divided(*t) for t in enumerate(gs)]
    out = []
    for n in range(len(fs)):
        acc: dict[int, Fraction] = {}
        for k in range(n + 1):
            for i, u in enumerate(fd[k]):
                for j, v in enumerate(gd[n - k]):
                    acc[i + j] = acc.get(i + j, 0) + u * v
        scaled = {e: c * math.factorial(n) for e, c in acc.items()}
        if any(c.denominator != 1 for c in scaled.values()):
            raise ArithmeticError(f"the product at n={n} is not integral")
        out.append(Poly.from_counts({e: c.numerator for e, c in scaled.items()}))
    return out


def derive(p, g):
    """D(p) from Poly arithmetic alone: the sum over the terms c * x^e of p
    and the letters x_i of each, of c * e_i * x^(e - unit_i) * rule(x_i)."""
    acc = Poly.zero()
    for e, c in p.terms.items():
        for i, (letter, k) in enumerate(zip(p.names, e)):
            if k:
                powers = (Poly.var(v) ** (m - (j == i))
                          for j, (v, m) in enumerate(zip(p.names, e)))
                rest = math.prod(powers, start=Poly.one())
                acc = acc + rest * g.rules.get(letter, Poly.zero()) * (c * k)
    return acc
