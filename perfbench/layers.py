"""Outside-in tracing of stirlab's layers, from the benchmark's own files.

The tracer replaces the attributes that callers resolve at call time with
wrappers that switch the current layer, so that no line of the package
changes.  Calls that cross a layer boundary open a span; calls within the
current layer only count.  Spans are folded into per-layer self time as
they close: a per-word span list would hold millions of entries.

Layers and the boundaries that lead into them:

- ``objects``: ``stats.iter_objects`` and ``identities.iter_objects``;
  streamed (not memoized) orders are timed item by item.
- ``stats``: ``identities.distribution`` and the record functions
  (``stirling_stat_record`` and the signed, matching and permutation ones)
  as ``stats`` and ``identities`` see them.
- ``actions``: every ``actions`` function as ``identities`` sees it.
- ``identities``: ``identities.run_all`` and ``IdentityCheck.run``.
- ``grammar``: ``derive_n``, ``parse_poly``, ``parse_grammar`` and
  ``coefficient_profile`` as ``cli``, ``identities`` and ``tables`` see them;
  ``grammar.derive`` counts steps and output terms.
- ``polynomials``: ``QPoly``/``TriPoly`` multiplication and the
  ``identities.egf_*`` functions.
- ``tables``: every ``tables`` function as ``cli`` and ``identities`` see it.
- ``tables.cache``: ``TableCache.load`` and ``TableCache.store``.
- ``cli``: each ``stirlab.cli.main`` call, opened by the benchmark itself.

Row and memo counts come from the ``lru_cache`` statistics, not wrappers.
"""
from __future__ import annotations

import functools
import operator
import os
from collections import Counter
from time import perf_counter

LAYERS = (
    "objects",
    "stats",
    "actions",
    "identities",
    "grammar",
    "polynomials",
    "tables",
    "tables.cache",
    "cli",
)

# the recurrence rows whose lru_cache statistics give tables.rows_built
ROW_BUILDERS = (
    "_eulerian_row",
    "_b_eulerian_row",
    "_stirling2_row",
    "_t_row",
    "_p_row",
    "_gamma_row",
)


# the time spent outside every named layer: the benchmark's own loop
OUTSIDE = "unattributed"


class Tracer:
    """Self time per layer and named counts, for one process."""

    def __init__(self):
        self.self_s: dict[str, float] = dict.fromkeys((OUTSIDE,) + LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.layer = OUTSIDE
        self._stack: list[str] = []
        self._mark = perf_counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self.layer] += now - self._mark
        self._stack.append(self.layer)
        self.layer = layer
        self._mark = now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self.layer] += now - self._mark
        self.layer = self._stack.pop()
        self._mark = now

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` that just passed, the speed probe's, out of the
        current layer's self time.  A probe sample that lands inside
        ``enter`` or ``leave`` may be taken from the one layer and have
        passed in the other: about a millisecond moves between two layers,
        and the sum over layers stays right."""
        self.self_s[self.layer] -= seconds

    def span(self, layer: str, fn, counter: str | None = None, after=None):
        """Wrap ``fn`` so that a call from another layer runs as a span of
        ``layer``.  ``counter`` counts every call; ``after(result, args)``
        runs after every call, outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            if self.layer == layer:
                result = fn(*args, **kwargs)
            else:
                self.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.leave()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def objects(self, fn):
        """Wrap ``iter_objects``: memoized orders come back as a tuple
        iterator, whose length is the word count; streamed orders are timed
        item by item as the caller draws them."""
        traced = self.span("objects", fn)

        def wrapper(klass, n):
            it = traced(klass, n)
            if type(it).__name__ == "tuple_iterator":
                self.counts["objects.words"] += operator.length_hint(it)
                return it
            return self._drawn(it)

        return wrapper

    def _drawn(self, it):
        while True:
            self.enter("objects")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.leave()
            self.counts["objects.words"] += 1
            yield item


class _Boundary:
    """A caller's view of a module: listed functions wrapped, the rest
    forwarded unchanged."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _module_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries of the imported stirlab package."""
    from stirlab import actions, cli, grammar, identities, polynomials, stats, tables

    span = tracer.span

    # objects
    stats.iter_objects = tracer.objects(stats.iter_objects)
    identities.iter_objects = tracer.objects(identities.iter_objects)

    # stats
    identities.distribution = span("stats", identities.distribution)
    for module, names in (
        (stats, ("stirling_stat_record", "signed_stat_record",
                 "matching_stat_record", "perm_des")),
        (identities, ("stirling_stat_record", "perm_des")),
    ):
        for name in names:
            setattr(module, name, span("stats", getattr(module, name), "stats.records"))

    # actions
    identities.actions = _Boundary(actions, {
        name: span("actions", fn, "actions.calls")
        for name, fn in _module_functions(actions).items()
    })

    # identities
    identities.run_all = span("identities", identities.run_all)
    identities.IdentityCheck.run = span(
        "identities", identities.IdentityCheck.run, "identities.checks"
    )

    # grammar
    for module in (cli, identities, tables):
        for name in ("derive_n", "parse_poly", "parse_grammar", "coefficient_profile"):
            if hasattr(module, name):
                setattr(module, name, span("grammar", getattr(module, name)))

    def count_terms(result, _args):
        tracer.counts["grammar.terms_out"] += len(result.terms)

    grammar.derive = span("grammar", grammar.derive, "grammar.derive_steps", count_terms)

    # polynomials
    for cls in (polynomials.QPoly, polynomials.TriPoly):
        mul = span("polynomials", cls.__mul__, "polynomials.muls")
        cls.__mul__ = cls.__rmul__ = mul
    for name in [n for n in vars(identities) if n.startswith("egf_")]:
        setattr(identities, name, span("polynomials", getattr(identities, name)))

    # tables
    table_fns = {
        name: span("tables", fn) for name, fn in _module_functions(tables).items()
    }
    cli.tables = _Boundary(tables, table_fns)
    identities.tables = _Boundary(tables, table_fns)

    # tables.cache
    cache_cls = tables.TableCache

    def loaded(result, args):
        cache, family, bound = args[:3]
        path = cache._path(family, bound)
        if path.exists():
            tracer.counts["tables.cache.bytes_read"] += os.path.getsize(path)
        if result is not None:
            tracer.counts["tables.cache.hits"] += 1

    def stored(_result, args):
        cache, table = args[:2]
        path = cache._path(table.family, table.bound)
        tracer.counts["tables.cache.bytes_written"] += os.path.getsize(path)

    cache_cls.load = span("tables.cache", cache_cls.load, "tables.cache.loads", loaded)
    cache_cls.store = span("tables.cache", cache_cls.store, "tables.cache.stores", stored)


def memo_counts() -> Counter:
    """Lookups and misses of the package's memo caches so far."""
    from stirlab import objects, stats, tables

    out: Counter = Counter()
    for prefix, caches in (
        ("objects", [objects._cached_objects]),
        ("stats", [stats._full_counts]),
        ("tables.row", [getattr(tables, name) for name in ROW_BUILDERS]),
    ):
        for cache in caches:
            info = cache.cache_info()
            out[f"{prefix}.hits"] += info.hits
            out[f"{prefix}.misses"] += info.misses
    return out
