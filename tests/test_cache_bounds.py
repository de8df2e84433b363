import contextlib
import importlib
import io
import pkgutil

import wpptoric
from wpptoric import cli, hilbert

# keyed on residues mod n, so it holds at most n^3 entries per order n
UNBOUNDED_BY_DESIGN = {"wpptoric.hilbert._psi_sum"}


def library_caches():
    for info in pkgutil.iter_modules(wpptoric.__path__):
        module = importlib.import_module(f"wpptoric.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


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
