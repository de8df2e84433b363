import contextlib
import importlib
import io
import pkgutil

import wpptoric
from wpptoric import cli, hilbert

# keyed on residues mod n, so it holds at most n^3 entries per order n
UNBOUNDED_BY_DESIGN = {"wpptoric.hilbert._psi_sum"}

# every library cache and the traffic that keeps it: its hits in its calls
# when the seed-1 stream of a bench workload is replayed in one fresh
# process, as one repetition of `bench/run.py` runs it, read from
# `cache_info()` afterwards
TRAFFIC = {
    "wpptoric.exact_arith._reducer": "kclass-mix 1210 hits in 1222 calls, moduli-mix 598 in 602",
    "wpptoric.hilbert._monomial_count": "rr-sweep 473 hits in 1848 calls",
    "wpptoric.hilbert._pair_sum": "rr-sweep 1592 hits in 1671 calls",
    "wpptoric.hilbert._psi_sum": "moduli-mix 1166 hits in 1193 calls",
    "wpptoric.hilbert.width_free_bracket_12": "moduli-mix 362 hits in 391 calls",
    "wpptoric.inertia.sectors": "kclass-mix 152 hits in 214 calls, moduli-mix 142 in 169",
    "wpptoric.kgroup._period_nilpotent": "kclass-mix 407 hits in 469 calls",
    "wpptoric.kgroup._relation_tail": "kclass-mix 991 hits in 1053 calls",
    "wpptoric.kgroup.g_power": "kclass-mix 1315 hits in 1784 calls",
    "wpptoric.partitions._chart_levels": "moduli-mix 65 hits in 175 calls",
    "wpptoric.rank2._bound_parts": "moduli-mix 20 hits in 47 calls",
    "wpptoric.sheaf_model._point_class": "kclass-mix 266 hits in 496 calls",
}


def library_caches():
    for info in pkgutil.iter_modules(wpptoric.__path__):
        module = importlib.import_module(f"wpptoric.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_library_cache_is_listed_with_its_traffic():
    caches = dict(library_caches())
    unlisted = sorted(caches.keys() - TRAFFIC.keys())
    assert unlisted == [], "caches with no measured hits: " + ", ".join(unlisted)
    # a listed cache that went, or lost its decorator, is a stale entry
    stale = sorted(TRAFFIC.keys() - caches.keys())
    assert stale == [], "listed but no longer caches: " + ", ".join(stale)


def test_every_library_cache_is_bounded():
    caches = dict(library_caches())
    assert UNBOUNDED_BY_DESIGN <= caches.keys()
    unbounded = sorted(name for name, fn in caches.items()
                       if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == sorted(UNBOUNDED_BY_DESIGN)


def test_hilb_top_stays_within_its_bound():
    # the pair sums are cached by residue: one entry per residue r mod
    # d_ij for each pair, however long the sweep over u < E
    hilbert._pair_sum.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["hilb", "--abc", "2", "3", "5", "--r", "7", "--E", "99990", "--check"])
        assert code == 0
        assert hilbert._pair_sum.cache_info().currsize <= 3
        code = cli.main(["hilb", "--abc", "4", "12", "22", "--r", "-2", "--E", "264", "--check"])
        assert code == 0
    info = hilbert._pair_sum.cache_info()
    assert info.currsize <= 3 + 4 + 2 + 2
    assert info.maxsize <= 8192
