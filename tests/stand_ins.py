"""Stand-ins that let a test break the compressor inside a chunk job.

``LocalChunks`` is a chunk RDD whose ``mapPartitions`` runs in this process
(one partition), so a monkeypatch of the compressor reaches the job's
per-chunk work. ``break_the_bound`` patches ``pipeline.decompress`` to move
one point of every reconstruction by 2·eb: each consumer of the hard-bound
check must then raise.
"""
from repro.compressor import pipeline


class LocalChunks:
    """A chunk RDD stand-in over ``rows``, run in this process."""

    def __init__(self, rows):
        self.rows = rows

    def mapPartitions(self, f):
        return LocalChunks(list(f(iter(self.rows))))

    def collect(self):
        return self.rows


def break_the_bound(monkeypatch) -> None:
    """Make ``pipeline.decompress`` return reconstructions that miss their
    bound by 2·eb at one point."""
    real = pipeline.decompress

    def one_point_off(c):
        rec = real(c).copy()
        rec.flat[rec.size // 2] += 2 * c.eb_abs
        return rec

    monkeypatch.setattr(pipeline, "decompress", one_point_off)
