"""Kernels: two hot-path offenders and one unreachable loop."""


def accumulate(corpus):
    total = 0
    for path in corpus.paths:  # PERF001: reachable from propagate
        total += len(path)
    return total


def walk(paths):
    out = []
    for i in range(len(paths)):  # PERF002: reachable from propagate
        out.append(paths[i])
    return out


def offline_report(corpus):
    lines = []
    for route in corpus.routes:  # clean: nothing hot reaches this
        lines.append(str(route))
    return lines
