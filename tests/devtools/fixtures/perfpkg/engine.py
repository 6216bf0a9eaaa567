"""The hot entry module (configured via ``perf_entry_modules``)."""

from perfpkg.kernels import accumulate, walk


def propagate(corpus):
    return accumulate(corpus) + len(walk(corpus.paths))
