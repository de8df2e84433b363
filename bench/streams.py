"""Seeded, stratified request streams for the three benchmark workloads.

A stream is a list of `(stratum, argv)` pairs that the worker replays
through `wpptoric.cli.main(argv)`.  Every seed draws the same number of
requests from each stratum.  Inside a stratum the weight triples are
fixed slots, evenly spaced along the stratum's pool ranked by a cost
proxy, and a cost-driving number (a twist, or --max) is drawn by Latin
hypercube sampling: its range is cut into as many equal slices as there
are draws and each slice gets exactly one.  Without that, one heavy draw
decides a run, and the steep latency distributions move their median
and 90th percentile by a quarter from seed to seed when the triples are
drawn at random.  The seed draws the other inputs (twists, partitions,
points, widths, r, --max) and the order: streams are shuffled with the
same seed, so strata interleave but every seed gives the same list.

Every argv is valid (no usage errors) and carries `--check` where the
command has it.  The fixed `PINS` of each workload are appended to every
stream, so a seed change never hides them.
"""

import math
import random

WORKLOADS = ("rr-sweep", "kclass-mix", "moduli-mix")

# ROADMAP's fixed CLI cases, in the stream whose layers they exercise.  The
# ROADMAP form of the kclass case omits the required --ABC, a usage error.
PINS = {
    "rr-sweep": [],
    "kclass-mix": [["kclass", "--abc", "5", "7", "9", "--ABC", "0", "0", "0", "--check"]],
    "moduli-mix": [
        ["hseries", "--abc", "2", "2", "2", "--E", "2", "--c1", "0", "--max", "14",
         "--order", "3", "--check"],
        ["gseries", "--abc", "1", "1", "1", "--order", "30", "--specialize", "total"],
    ],
}


def _triples(cmax):
    for a in range(1, cmax + 1):
        for b in range(a, cmax + 1):
            for c in range(b, cmax + 1):
                yield a, b, c


def _pair_gcds(a, b, c):
    return math.gcd(a, b), math.gcd(a, c), math.gcd(b, c)


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _lhs_ints(rng, lo, hi, n):
    """n integers in [lo, hi), one from each of n equal slices."""
    width = (hi - lo) / n
    return [int(lo + width * (i + rng.random())) for i in range(n)]


def _spaced(ranked, n):
    """n items of a cost-ranked list, the first of each of n equal slices.

    A list shorter than n gives some items twice.
    """
    return [ranked[len(ranked) * i // n] for i in range(n)]


def _abc(w):
    return ["--abc", *map(str, w)]


# ---------------------------------------------------------------------------
# rr-sweep: hilb --r r --E E, E in {m, 2m}
# ---------------------------------------------------------------------------

RR_BANDS = {"g3": (3, 3), "g4-5": (4, 5), "g6-8": (6, 8), "g9-12": (9, 12)}
RR_TRIPLES_PER_BAND = 12
RR_R_PER_TRIPLE = 3
RR_MAX_PROXY = 25_000
RR_LCM_GROUPS = 3


def _rr_proxy(w):
    """Cyclotomic work of a sweep, in units of about 10 microseconds.

    hilb_top is cached per twist and vanishes unless d divides it, so a
    sweep evaluates about (R + 2m)/d twists; each adds dij - d terms per
    pair, and one term costs about 20 + phi(dij)^2 units (an inverse in
    Q(zeta_dij) by extended Euclid).
    """
    a, b, c = w
    d, m = math.gcd(a, b, c), math.lcm(a, b, c)
    pair = sum((g - d) * (20 + _phi(g) ** 2) for g in _pair_gcds(a, b, c) if g > 1)
    return (RR_R_PER_TRIPLE + 2 * m) // d * pair


def _rr_pool():
    bands = {name: [] for name in RR_BANDS}
    for w in _triples(24):
        g = max(_pair_gcds(*w))
        if math.lcm(*w) > 180 or _rr_proxy(w) > RR_MAX_PROXY:
            continue
        for name, (lo, hi) in RR_BANDS.items():
            if lo <= g <= hi:
                bands[name].append(w)
    return bands


def _rr_sweep(rng):
    """Each band is cut into lcm terciles, since a cached request costs O(E),
    and each tercile's triples are spaced along the pair-sum cost proxy."""
    out = []
    per_group = RR_TRIPLES_PER_BAND // RR_LCM_GROUPS
    for band, pool in _rr_pool().items():
        by_lcm = sorted(pool, key=lambda w: (math.lcm(*w), w))
        for k in range(RR_LCM_GROUPS):
            group = by_lcm[len(by_lcm) * k // RR_LCM_GROUPS:
                           len(by_lcm) * (k + 1) // RR_LCM_GROUPS]
            for w in _spaced(sorted(group, key=lambda w: (_rr_proxy(w), w)), per_group):
                m = math.lcm(*w)
                r0 = rng.randint(-15, 15 - RR_R_PER_TRIPLE)
                for i in range(RR_R_PER_TRIPLE):
                    E = m if i % 2 else 2 * m
                    out.append((band, ["hilb", *_abc(w), "--r", str(r0 + i), "--E", str(E),
                                       "--check"]))
    return out


# ---------------------------------------------------------------------------
# kclass-mix: line bundles, rank-1 sheaves, rank-2 type-I data, glue demos
# ---------------------------------------------------------------------------

KC_TWIST_BANDS = {"e0-30": (0, 30), "e30-300": (30, 300), "e300-3000": (300, 3000),
                  "e3000-15000": (3000, 15001)}
# line bundles per twist band: few where the twists cost seconds, so that a
# repetition stays short enough to be repeated, and many where the weight's
# character table sets the cost, so that the 90th percentile falls among them
KC_LINES = {"e0-30": 10, "e30-300": 10, "e300-3000": 3, "e3000-15000": 3}
KC_RANK1 = 40
KC_RANK2 = 40
KC_GLUE = 4
KC_POINTS = ("1:0", "0:1", "1:1", "2:3", "1:-1", "1/2:1")


def _kc_pool(max_lcm, cmax):
    """Weights with lcm <= max_lcm, ranked by field order then degree."""
    pool = [w for w in _triples(cmax) if math.lcm(*w) <= max_lcm]
    return sorted(pool, key=lambda w: (math.lcm(*w), sum(w), w))


def _split3(rng, total):
    x = rng.randint(-3, 3)
    y = rng.randint(-3, 3)
    return [total - x - y, x, y]


def _partition(rng, max_size):
    n = rng.randint(0, max_size)
    rows = []
    while n:
        part = rng.randint(1, min(n, rows[-1] if rows else n))
        rows.append(part)
        n -= part
    return ",".join(map(str, rows))


def _points(rng, pattern):
    """Three points; 'distinct', one coinciding 'pair', or 'all' equal."""
    if pattern == "distinct":
        pts = rng.sample(KC_POINTS, 3)
    elif pattern == "pair":
        p, q = rng.sample(KC_POINTS, 2)
        pts = [p, p, q]
        rng.shuffle(pts)
    else:
        pts = [rng.choice(KC_POINTS)] * 3
    return ";".join(pts)


def _line_pool():
    """Weights for line bundles, ranked by the cost of their character table.

    g^e is reduced modulo a polynomial in x^d, d = gcd(a, b, c), at a cost
    of about (e/d)^2, so d = 1 leaves the twist alone to set that cost.  The
    table of tch_of_kclass costs about (a+b+c)^2 phi(lcm)^2.
    """
    pool = [w for w in _kc_pool(30, 12) if math.gcd(*w) == 1 and sum(w) >= 10]
    return sorted(pool, key=lambda w: (sum(w) ** 2 * _phi(math.lcm(*w)) ** 2, w))


def _kclass_mix(rng):
    out = []
    # distinct weights, one per cost slice, dealt round-robin to the bands;
    # each keeps its twist slice, since the cost depends on both
    weights = iter(_spaced(_line_pool(), sum(KC_LINES.values())))
    mine = {band: [] for band in KC_LINES}
    for k in range(max(KC_LINES.values())):
        for band, n in KC_LINES.items():
            if k < n:
                mine[band].append(next(weights))
    for band, (lo, hi) in KC_TWIST_BANDS.items():
        n = KC_LINES[band]
        twists = _lhs_ints(rng, lo, hi, n)
        for i, (e, w) in enumerate(zip(twists, mine[band])):
            # the middle slice is the negative one, so the positive twists
            # add up to about the same total on every seed
            sign = -1 if i == n // 2 else 1
            out.append((f"line:{band}", ["kclass", *_abc(w), "--ABC",
                                          *map(str, _split3(rng, sign * e)), "--check"]))
    small_pool = _kc_pool(60, 6)
    for w in _spaced(small_pool, KC_RANK1):
        lams = ";".join(_partition(rng, 5) for _ in range(3))
        out.append(("rank1", ["kclass", *_abc(w), "--ABC",
                              *map(str, _split3(rng, rng.randint(-6, 6))),
                              "--partitions", lams, "--check"]))
    patterns = ["distinct", "pair", "all"]
    for i, w in enumerate(_spaced(small_pool, KC_RANK2)):
        a, b, c = w
        widths = [b * rng.randint(0, 3), c * rng.randint(0, 3), a * rng.randint(0, 3)]
        out.append(("rank2", ["kclass", *_abc(w), "--ABC",
                              *map(str, _split3(rng, rng.randint(-6, 6))),
                              "--widths", *map(str, widths),
                              "--points", _points(rng, patterns[i % 3]), "--check"]))
    # The rank-1 demo mutates only the hull label B, which P(1,1,1) cannot
    # see, so its demo reports a mismatch there (exit 2); keep c >= 2.
    glue_pool = [w for w in _kc_pool(12, 3) if w[2] >= 2]
    for i, w in enumerate(_spaced(glue_pool, KC_GLUE)):
        out.append(("glue", ["glue", *_abc(w), "--demo", ("rank1", "rank2")[i % 2],
                             "--check"]))
    return out


# ---------------------------------------------------------------------------
# moduli-mix: hseries, stable and gseries on weights with lcm <= 12
# ---------------------------------------------------------------------------

MM_BANDS = {"m1-4": (1, 4), "m5-12": (5, 12)}
MM_PER_BAND = {"hseries": 15, "stable": 20, "gseries": 15}
MM_HSERIES_MAX_DEGREE = 10
MM_C1 = (0, 1, -1, 2, -2, 3, -3)
MM_MAX = {"hseries": (6, 15), "stable": (16, 33), "gseries": (3, 8)}  # --max, or --order
MM_STRIDE = 7  # deals the --max slices to the slots; coprime to the draws per band


def _hseries_proxy(w):
    """Character-sum work of h_vb_window: psi_E over each pair's roots."""
    return sum(g ** 3 * _phi(g) ** 2 for g in _pair_gcds(*w) if g > 1)


def _mm_pool(band, command):
    lo, hi = MM_BANDS[band]
    pool = [w for w in _triples(12) if lo <= math.lcm(*w) <= hi]
    if command == "hseries":
        # the window scan grows steeply with the degree: (2,5,5) takes seconds
        pool = [w for w in pool if sum(w) <= MM_HSERIES_MAX_DEGREE]
        return sorted(pool, key=lambda w: (_hseries_proxy(w), w))
    # fewer admissible widths, so less work, as the weights grow
    return sorted(pool, key=lambda w: (-w[0] * w[1] * w[2], w))


def _moduli_mix(rng):
    """Discrete knobs cycle through their values and --max (--order for
    gseries) is drawn by Latin hypercube.

    Each slot has fixed weights and a fixed c1 (beta for gseries) and
    lambda: whether the parity and congruence constraints leave any stable
    data (tens of milliseconds to a second of work, or about 2 ms) depends
    on all three, and drawing them at random moved the stream's median
    latency by a quarter from seed to seed.  The cost also grows steeply
    with --max, so the --max slices are dealt to the slots in a fixed
    order; the seed moves each slot's --max within its slice and reorders
    the stream.
    """
    out = []
    for command, n in MM_PER_BAND.items():
        for band in MM_BANDS:
            maxes = _lhs_ints(rng, *MM_MAX[command], n)
            maxes = [maxes[i * MM_STRIDE % n] for i in range(n)]
            weights = _spaced(_mm_pool(band, command), n)
            for i, (w, top) in enumerate(zip(weights, maxes)):
                m, d = math.lcm(*w), math.gcd(*w)
                c1, lam = str(MM_C1[i % len(MM_C1)]), str(i % d)
                if command == "hseries":
                    argv = ["hseries", *_abc(w), "--E", str(m * (1 + i % 2)), "--c1", c1,
                            "--lambda", lam, "--max", str(top), "--order", str(1 + i % 3),
                            "--check"]
                elif command == "stable":
                    argv = ["stable", *_abc(w), "--c1", c1, "--lambda", lam,
                            "--max", str(top), "--check"]
                else:
                    argv = ["gseries", *_abc(w), "--beta", c1, "--order", str(top),
                            "--specialize", ("none", "color0", "total")[i % 3], "--check"]
                out.append((f"{command}:{band}", argv))
    return out


_BUILDERS = {"rr-sweep": _rr_sweep, "kclass-mix": _kclass_mix, "moduli-mix": _moduli_mix}


def _sweep_order(stream):
    """Put the requests of each r sweep (one command and weight triple) in
    ascending r, in the places the shuffle gave them.

    The first request of a sweep fills the caches for the rest, so which r
    comes first sets what each costs; a sweep in order fixes that.
    """
    sweeps = {}
    for pos, (_, argv) in enumerate(stream):
        if "--r" in argv:
            i = argv.index("--abc")
            sweeps.setdefault((argv[0], *argv[i + 1:i + 4]), []).append(pos)
    out = list(stream)
    for places in sweeps.values():
        items = sorted((stream[p] for p in places),
                       key=lambda item: int(item[1][item[1].index("--r") + 1]))
        for p, item in zip(places, items):
            out[p] = item
    return out


def build(workload, seed):
    """The request stream of `workload` for `seed`: a list of (stratum, argv)."""
    rng = random.Random(f"{workload}:{seed}")
    stream = _BUILDERS[workload](rng)
    rng.shuffle(stream)
    stream = _sweep_order(stream)
    return stream + [("pin", list(argv)) for argv in PINS[workload]]


def may_fail(stratum, argv):
    """Whether a request is one of the kept known failures.

    The cold, recursive `g_power` raises RecursionError on line bundles with
    a twist below about -490; `kclass-mix` keeps those requests.  Any other
    failure makes a run incorrect.
    """
    if not stratum.startswith("line:"):
        return False
    i = argv.index("--ABC")
    return sum(map(int, argv[i + 1:i + 4])) < 0


def describe(stream):
    """Requests per stratum and the share whose weight triple came up before."""
    counts = {}
    seen, repeats = set(), 0
    for stratum, argv in stream:
        counts[stratum] = counts.get(stratum, 0) + 1
        i = argv.index("--abc")
        w = tuple(argv[i + 1:i + 4])
        repeats += w in seen
        seen.add(w)
    return {"requests": len(stream), "per_stratum": dict(sorted(counts.items())),
            "repeat_weight_share": round(repeats / len(stream), 4)}
