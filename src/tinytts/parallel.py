"""The one place that starts worker processes."""


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
