"""Fixture: fork-safe worker code.

Workers only read module state and write locals; the factory carries
a path (picklable), opening the handle worker-side.
"""

_TABLE = {"a": 1, "b": 2}


def lookup_worker_run(item):
    local_cache = {}
    local_cache[item] = _TABLE.get(item, 0)
    results = []
    results.append(local_cache[item])
    return results


class PathWorkerFactory:
    def __init__(self, path):
        self.path = str(path)

    def __call__(self):
        with open(self.path, "rb") as handle:
            return handle.read()


def build_pool(PersistentPool, factory):
    return PersistentPool(factory, 2)


class RequestBatcher:
    def __init__(self):
        self.pending = []

    def drain(self, items):
        self.pending.extend(items)
        return list(self.pending)
