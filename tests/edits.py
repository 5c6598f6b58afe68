"""One-field edits of JSON documents, for sweeps that check every edited
document is refused by name or judged, and a timer that bounds each case."""

import json
import re
import signal
from collections import defaultdict

MUTATIONS = {
    "+1": lambda x: x + 1,
    "-1": lambda x: x - 1,
    "negated": lambda x: -x,
    "doubled": lambda x: 2 * x,
    "+10^30": lambda x: x + 10**30,
}


def integer_leaves(doc, path=()):
    """The key paths of the integer leaves of a JSON document: JSON integers
    (not booleans) and decimal integer strings."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from integer_leaves(value, path + (key,))
        elif isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
            yield path + (key,)
        elif isinstance(value, int) and not isinstance(value, bool):
            yield path + (key,)


def field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def leaf_field(keys):
    """The field path of a leaf with its indices dropped, such as lattice.gram[][]."""
    return re.sub(r"\[[0-9]+\]", "[]", field_path(keys))


def edited(text, keys, edit):
    """The JSON document ``text`` with the integer leaf at ``keys`` replaced by
    edit(value), in the leaf's own type; None when the edit leaves it as it is."""
    doc = json.loads(text)
    *parents, last = keys
    parent = doc
    for k in parents:
        parent = parent[k]
    old = parent[last]
    new = edit(int(old))
    if new == int(old):
        return None
    parent[last] = str(new) if isinstance(old, str) else new
    return doc


def one_field_edits(doc, rng=None, per_field=None, extra=()):
    """(case, keys, edited document) for every edit in MUTATIONS that changes
    a chosen integer leaf of doc, where case is "<field path> <edit name>".

    The chosen leaves are the ``extra`` key paths, then every integer leaf,
    or, given ``per_field``, ``rng.sample`` of up to that many leaves of each
    ``leaf_field`` in sorted order.
    """
    text = json.dumps(doc)
    chosen = list(extra)
    if per_field is None:
        chosen += integer_leaves(doc)
    else:
        leaves = defaultdict(list)
        for keys in integer_leaves(doc):
            leaves[leaf_field(keys)].append(keys)
        for field in sorted(leaves):
            chosen += rng.sample(leaves[field], min(per_field, len(leaves[field])))
    for keys in chosen:
        for name, edit in MUTATIONS.items():
            new = edited(text, keys, edit)
            if new is not None:
                yield f"{field_path(keys)} {name}", keys, new


def within(seconds, call):
    """call(), failing the test if it has not returned after the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
