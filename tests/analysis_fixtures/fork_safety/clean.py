"""Fixture: fork-safe worker code.

Workers only read module state and write locals; the pool payload
is a picklable top-level callable.
"""

_TABLE = {"a": 1, "b": 2}


def lookup_worker_run(item):
    local_cache = {}
    local_cache[item] = _TABLE.get(item, 0)
    results = []
    results.append(local_cache[item])
    return results


def build_pool(PersistentPool):
    return PersistentPool(lookup_worker_run, 2)


class RequestBatcher:
    def __init__(self):
        self.pending = []

    def drain(self, items):
        self.pending.extend(items)
        return list(self.pending)
