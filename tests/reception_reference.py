"""The list form of the reception rule, kept as a reference for tests.

``hearing`` is the library's earlier per-listener rule, unchanged: the
slot protocols and the centralized simulator now read ``model.jammed``
over reach masks, and the reference tests compare them against it.
"""

from typing import Iterable

from rumorcast.model import NetworkGraph


def hearing(g: NetworkGraph, talkers: Iterable[int | str]) -> dict:
    """Listener -> the talkers that reach it, in talker order.

    The reception rule, of which ``jammed`` is the mask form: a listener
    receives cleanly only when it hears exactly one talker.  Built from the
    talkers' out-neighbor lists in O(sum of their out-degrees).  Talkers
    appear as listeners too; callers whose talkers are deaf drop them.
    """
    heard: dict = {}
    for u in talkers:
        for v in g.adjacency[u]:
            heard.setdefault(v, []).append(u)
    return heard
