import tracemalloc


def peak_bytes(fn, *args) -> int:
    """The peak of the memory that numpy and Python allocate while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
