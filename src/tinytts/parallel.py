"""The one place that starts worker processes or reports per-source failures."""

from functools import partial

from .errors import SourcesFailed, TinyTtsError


def map_tasks(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], on a pool of `jobs` processes when jobs > 1.

    Results keep the order of `items`, so outputs never depend on scheduling.
    concurrent.futures (and with it multiprocessing) loads only for a pool.
    """
    if jobs <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _attempt(task, item) -> tuple[bool, object]:
    """(True, task(item)), or (False, the text of its TinyTtsError or OSError)."""
    try:
        return True, task(item)
    except (TinyTtsError, OSError) as exc:
        return False, str(exc)


def map_sources(task, items, ids, jobs: int = 1) -> list:
    """map_tasks(task, items, jobs) with each item one source, named by its
    entry of `ids`. Every item is attempted; then, if any raised a TinyTtsError
    or OSError, one SourcesFailed names each such source (the first 20)."""
    outcomes = map_tasks(partial(_attempt, task), items, jobs)
    failures = [f"{i}: {out}" for i, (ok, out) in zip(ids, outcomes) if not ok]
    if failures:
        listed = "; ".join(failures[:20])
        raise SourcesFailed(f"{len(failures)} source failure(s): {listed}")
    return [out for _, out in outcomes]
