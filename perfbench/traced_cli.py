"""Run one symtrap CLI call with timing spans around each layer's entry points.

    python traced_cli.py SPANS_FILE INVOCATION_ID ARG...

Imports ``symtrap.cli`` (timed), wraps every public function of each layer
module and rebinds the wrapper under every name a ``symtrap`` module bound
the original to (the package uses ``from .x import y``), then runs the CLI
on ``ARG...``.  Spans stay in memory and are written to ``SPANS_FILE`` as
JSON when the call ends; stdout is untouched.

Per-element leaf functions are not wrapped, as a span per element would
swamp the work; their work is read from the memo caches behind them.
"""

import sys
import time

START = time.perf_counter()

LAYERS = ("characters", "partitions", "oscillator", "branching", "mapping", "snippet", "linalg", "oracle")
LEAVES = frozenset({"sn_character", "kostka", "dot", "irrep_dimension"})
PROG_NAME = "python -m symtrap.cli"


class Recorder:
    """Spans as ``[name, layer, start, end, parent]`` rows plus named counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name, layer):
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.stack.pop()
        self.spans[index][3] = time.perf_counter()

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def caller_layer(self):
        """Layer of the span that called the innermost open one."""
        parent = self.spans[self.stack[-1]][4]
        return self.spans[parent][1] if parent >= 0 else "cli"

    def fed(self, iterable, counter):
        """Yield from ``iterable``, timing each step under the caller's layer:
        a generator argument runs its producer's code inside the consumer."""
        iterator = iter(iterable)
        layer = self.caller_layer()
        while True:
            index = self.open("input", layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.add(counter)
            yield item


def wrap(rec, fn, name, layer, counter=None):
    def spanned(*args, **kwargs):
        index = rec.open(name, layer)
        if counter:
            rec.add(counter)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return spanned


def counting_wrappers(rec, originals):
    """Wrappers that also count each layer's work items."""
    partitions_into = originals["partitions.partitions_into_max_parts"]

    def partitions_into_max_parts(*args, **kwargs):
        misses = partitions_into.cache_info().misses
        result = partitions_into(*args, **kwargs)
        if partitions_into.cache_info().misses != misses:
            rec.add("partitions.quanta_enumerated", len(result))
        return result

    def select_independent(vectors, limit=None):
        kept = originals["linalg.select_independent"](rec.fed(vectors, "linalg.vectors_offered"), limit)
        rec.add("linalg.vectors_kept", len(kept))
        return kept

    def matrix_rank(rows):
        rank = originals["linalg.matrix_rank"](rec.fed(rows, "linalg.vectors_offered"))
        rec.add("linalg.vectors_kept", rank)
        return rank

    def snippet_projection_basis(*args, **kwargs):
        vectors = originals["snippet.snippet_projection_basis"](*args, **kwargs)
        rec.add("snippet.bases_built")
        rec.add("snippet.vectors_out", len(vectors))
        return vectors

    def listing(qualname):
        def listed(*args, **kwargs):
            levels = originals[qualname](*args, **kwargs)
            rec.add("mapping.levels_listed", len(levels))
            return levels

        return listed

    return {
        "partitions.partitions_into_max_parts": partitions_into_max_parts,
        "linalg.select_independent": select_independent,
        "linalg.matrix_rank": matrix_rank,
        "snippet.snippet_projection_basis": snippet_projection_basis,
        "mapping.spectrum_by_irrep": listing("mapping.spectrum_by_irrep"),
        "mapping.ground_state": listing("mapping.ground_state"),
    }


def entry_points(module):
    """Public functions defined in ``module``, leaves excluded."""
    for name, value in vars(module).items():
        if name.startswith("_") or name in LEAVES or isinstance(value, type):
            continue
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            yield name, value


def memo_caches():
    """Every lru_cache-wrapped function bound in a symtrap module, once each."""
    seen = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "symtrap" or mod_name.startswith("symtrap."):
            for value in vars(module).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    seen[id(value)] = value
    return list(seen.values())


def instrument(rec):
    """Rebind every layer entry point to a spanned wrapper; return the originals."""
    originals = {}
    for layer in LAYERS:
        for name, fn in entry_points(sys.modules["symtrap." + layer]):
            originals[f"{layer}.{name}"] = fn
    counted = counting_wrappers(rec, originals)
    calls = {"branching": "branching.calls", "oracle": "oracle.checks"}
    by_id = {}
    for qualname, fn in originals.items():
        layer, name = qualname.split(".")
        by_id[id(fn)] = wrap(rec, counted.get(qualname, fn), name, layer, calls.get(layer))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "symtrap" or mod_name.startswith("symtrap."):
            for name, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
    return originals


def cache_counts(originals, caches):
    import symtrap.characters as characters

    def misses(fn):
        return fn.cache_info().misses

    return {
        "characters.tables_built": misses(originals["characters.character_table_sn"])
        + misses(originals["characters.character_table_snz2"]),
        "characters.mn_evals": misses(characters._mn),
        "characters.kostka_evals": misses(characters._kostka),
        "oscillator.shell_reductions": misses(originals["oscillator.shell_reduction"]),
        "oscillator.lambda_reductions": misses(originals["oscillator.lambda_reduction"]),
        "cache.entries": sum(fn.cache_info().currsize for fn in caches),
    }


def main():
    spans_path, invocation = sys.argv[1], sys.argv[2]
    args = sys.argv[3:]
    before = time.perf_counter()
    import symtrap.cli as cli

    import_s = time.perf_counter() - before
    import symtrap.oracle  # noqa: F401  imported lazily by --verify; loaded here to be wrapped

    rec = Recorder()
    caches = memo_caches()
    originals = instrument(rec)
    root = rec.open("main", "cli")
    try:
        cli.main(args=args, prog_name=PROG_NAME)
    finally:
        rec.close(root)
        record = {
            "invocation": invocation,
            "import_s": import_s,
            "spans": rec.spans,
            "counts": {**rec.counts, **cache_counts(originals, caches)},
            "elapsed_s": time.perf_counter() - START,
        }
        import json

        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    main()
