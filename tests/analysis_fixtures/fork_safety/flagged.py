"""Fixture: worker code violating every fork-safety check."""
import threading

_CACHE = {}
_COUNT = 0
_RESULTS = []


def shared_worker_run(item):
    global _COUNT
    _COUNT = _COUNT + 1
    _CACHE[item] = True
    _RESULTS.append(item)
    return item


class HandleWorkerFactory:
    def __init__(self, path):
        self.handle = open(path, "rb")
        self.lock = threading.Lock()

    def __call__(self):
        return self.handle.read()


def build_pool(PersistentPool, items):
    return PersistentPool(lambda: items, 2)


class RequestBatcher:
    def drain(self, items):
        _RESULTS.extend(items)
        return items
