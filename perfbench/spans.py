"""Per-layer spans recorded from outside the bbsuper package.

Every public function of a layer is replaced, on its module and on every
module that imported it by value, with a wrapper that records a span:
name, parent span, request (the job it belongs to), start and end.
Counters come only from the arguments and return values of the wrapped
calls.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _count_mul(counts, args, result):
    a, b = args[0], args[1]
    counts["series.mul_pairs"] += len(a.terms) * len(b.terms)
    by_height_a = Counter(map(sum, a.terms))
    by_height_b = Counter(map(sum, b.terms))
    bound = a.height_bound
    counts["series.mul_kept"] += sum(
        na * nb
        for ha, na in by_height_a.items()
        for hb, nb in by_height_b.items()
        if ha + hb <= bound
    )


def _count_roots(counts, args, result):
    counts["roots.count"] += len(result.entries)


def _count_orbit(counts, args, result):
    counts["weyl.orbit_size"] += len(result)


def _count_character(counts, args, result):
    counts["charformula.support_terms"] += result.support_terms
    counts["charformula.residual_terms"] += result.residual_terms


def _count_gram(counts, args, result):
    words = len(result.monomials)
    counts["verma_oracle.words"] += words
    counts["verma_oracle.gram_entries"] += sum(len(row) for row in result.gram)
    counts["verma_oracle.words_max"] = max(counts["verma_oracle.words_max"], words)


def _count_rank(counts, args, result):
    counts["exactlinalg.rank_sum"] += result


def _count_pool(counts, args, result):
    counts["pool.cells"] += len(result)


def _places(mods):
    """(span name, [(owner, attribute)], counter) for every wrapped call."""
    cli, datum, series, roots = mods["cli"], mods["datum"], mods["series"], mods["roots"]
    weyl, cf, vo, el = mods["weyl"], mods["charformula"], mods["verma_oracle"], mods["exactlinalg"]
    char_series = getattr(series, "CharSeries", None)
    return [
        ("cli.main", [(cli, "main")], None),
        ("datum.parse", [(datum, "datum_from_json"), (cli, "datum_from_json")], None),
        ("datum.weight", [(datum, "weight_from_json"), (cli, "weight_from_json")], None),
        ("series.mul", [(char_series, "mul")], _count_mul),
        ("series.invert", [(char_series, "invert")], None),
        (
            "series.denominator",
            [(series, "denominator_R"), (cli, "denominator_R"), (cf, "denominator_R")],
            None,
        ),
        ("series.binomial", [(series, "binomial_factor"), (roots, "binomial_factor")], None),
        (
            "roots.solve",
            [(roots, "solve_multiplicities"), (cli, "solve_multiplicities")],
            _count_roots,
        ),
        ("weyl.orbit", [(weyl, "orbit_frontier"), (cf, "orbit_frontier")], _count_orbit),
        ("charformula.numerator", [(cf, "numerator_series"), (roots, "numerator_series")], None),
        ("charformula.supports", [(cf, "enumerate_supports")], None),
        (
            "charformula.character",
            [(cf, "irreducible_character"), (cli, "irreducible_character")],
            _count_character,
        ),
        ("verma_oracle.window", [(vo, "weight_window"), (cli, "weight_window")], None),
        ("verma_oracle.words", [(vo, "enumerate_f_monomials")], None),
        ("verma_oracle.gram", [(vo, "gram_matrix")], _count_gram),
        ("verma_oracle.irreducible_dim", [(vo, "irreducible_dim"), (cli, "irreducible_dim")], None),
        ("verma_oracle.generic_dim", [(vo, "generic_dim"), (cli, "generic_dim")], None),
        ("exactlinalg.gauss", [(el, "rank_gauss"), (vo, "rank_gauss")], _count_rank),
        ("exactlinalg.bareiss", [(el, "rank_bareiss"), (vo, "rank_bareiss")], _count_rank),
    ]


def import_layers() -> dict:
    """The bbsuper modules by layer name; a module that no longer exists
    maps to None and its spans read zero."""
    mods = {}
    for layer in ("cli", "datum", "series", "roots", "weyl", "charformula",
                  "verma_oracle", "exactlinalg"):
        try:
            mods[layer] = importlib.import_module(f"bbsuper.{layer}")
        except ModuleNotFoundError:
            mods[layer] = None
    return mods


class Tracer:
    """Installs span wrappers and turns the recorded spans into metrics."""

    def __init__(self):
        # [name, parent index or -1, request, start, end, counting time]
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, count, eager=False):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                end = perf_counter()
                stack.pop()
                span[3], span[4] = start, end
            if count is not None:
                try:
                    count(counts, args, result)
                except (AttributeError, KeyError, TypeError):
                    # a refactored return type must not fail the job
                    counts["counter_errors"] += 1
                span[5] = perf_counter() - end
            return iter(result) if eager else result

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, mods):
        wrappers = {}
        for name, owners, count in _places(mods):
            for owner, attr in owners:
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name, count)
                self._replace(owner, attr, wrappers[fn])
        pool = getattr(mods["cli"], "ProcessPoolExecutor", None)
        if pool is not None:
            # The CLI drains pool.map at once, so materialising the results
            # inside the span times the wait for the workers.
            traced_map = self._wrap(pool.map, "pool.map", _count_pool, eager=True)
            self._replace(mods["cli"], "ProcessPoolExecutor",
                          type("TracedPool", (pool,), {"map": traced_map}))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def span_records(self) -> list:
        return [
            {"name": n, "parent": p, "request": r, "start": s, "end": e}
            for n, p, r, s, e, _ in self.spans
        ]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        total = defaultdict(float)
        calls = Counter()
        covered = [0.0] * len(self.spans)
        for name, parent, _, start, end, counting in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start + counting
        own = defaultdict(float)
        for index, (name, _, _, start, end, _) in enumerate(self.spans):
            own[name.split(".")[0]] += end - start - covered[index]
        c = self.counts
        words = c["verma_oracle.words"]
        pairs = c["series.mul_pairs"]
        out = {
            "series.mul_s": (total["series.mul"], "s"),
            "series.mul_calls": (calls["series.mul"], "count"),
            "series.mul_pairs": (pairs, "count"),
            "series.mul_kept_ratio": (c["series.mul_kept"] / pairs if pairs else 0.0, "ratio"),
            "series.invert_s": (total["series.invert"], "s"),
            "series.denominator_s": (total["series.denominator"], "s"),
            "roots.solve_s": (total["roots.solve"], "s"),
            "roots.count": (c["roots.count"], "count"),
            "weyl.orbit_s": (total["weyl.orbit"], "s"),
            "weyl.orbit_size": (c["weyl.orbit_size"], "count"),
            "charformula.supports_s": (total["charformula.supports"], "s"),
            "charformula.support_terms": (c["charformula.support_terms"], "count"),
            "charformula.residual_terms": (c["charformula.residual_terms"], "count"),
            "verma_oracle.gram_s": (total["verma_oracle.gram"], "s"),
            "verma_oracle.words_s": (total["verma_oracle.words"], "s"),
            "verma_oracle.cells": (calls["verma_oracle.gram"], "count"),
            "verma_oracle.words": (words, "count"),
            "verma_oracle.words_max": (c["verma_oracle.words_max"], "count"),
            "verma_oracle.gram_entries": (c["verma_oracle.gram_entries"], "count"),
            "verma_oracle.useful_ratio": (
                c["exactlinalg.rank_sum"] / words if words else 0.0, "ratio"),
            "exactlinalg.gauss_s": (total["exactlinalg.gauss"], "s"),
            "exactlinalg.bareiss_s": (total["exactlinalg.bareiss"], "s"),
            "exactlinalg.bareiss_calls": (calls["exactlinalg.bareiss"], "count"),
            "datum.parse_s": (total["datum.parse"], "s"),
            "datum.parse_calls": (calls["datum.parse"], "count"),
            "pool.map_s": (total["pool.map"], "s"),
            "pool.cells": (c["pool.cells"], "count"),
            "series.self_share": (own["series"] / traced_wall, "ratio"),
            "verma_oracle.gram_share": (total["verma_oracle.gram"] / traced_wall, "ratio"),
            "exactlinalg.bareiss_share": (total["exactlinalg.bareiss"] / traced_wall, "ratio"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }
        for layer in ("cli", "datum", "series", "roots", "weyl", "charformula",
                      "verma_oracle", "exactlinalg", "pool"):
            out[f"{layer}.self_s"] = (own[layer], "s")
        return out

    def bases(self) -> dict:
        """The numerator and base of every ratio, for the report."""
        c = self.counts
        return {
            "counter_errors": (c["counter_errors"], len(self.spans), "spans"),
            "series.mul_kept_ratio": (c["series.mul_kept"], c["series.mul_pairs"], "pairs"),
            "verma_oracle.useful_ratio": (
                c["exactlinalg.rank_sum"], c["verma_oracle.words"], "words (sum of ranks)"),
        }
