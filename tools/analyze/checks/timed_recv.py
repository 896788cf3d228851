"""timed-recv: no path from a protocol entry point to an untimed receive.

Subsumes the retired `untimed-recv` regex rule and extends it across call
chains: the regex saw `fabric.Recv(...)` on a line; this check sees a
protocol entry point whose call-graph closure contains Mailbox::Get /
GetAny or Fabric::Recv / RecvAny — even when the receive hides behind a
helper in another file. The finding points at the call site on the path
(the frame the protocol author controls), not at the transport's own
wrapper bodies.
"""

from .. import config
from ..ir import Finding


def _is_sink(fn):
    return config.matches_any(fn.qname, config.RECV_SINK_PATTERNS)


def _is_sink_owner(fn):
    return config.matches_any(fn.qname, config.RECV_SINK_OWNERS)


def unmatched_entry_patterns(program):
    """Entry patterns that name no function of `program` — stale config."""
    return [p for p in config.RECV_ENTRY_PATTERNS
            if not any(config.matches_any(fn.qname, (p,))
                       for fn in program.functions.values())]


def run(program, graph, root=None):
    entries = [fn for fn in program.functions.values()
               if config.matches_any(fn.qname, config.RECV_ENTRY_PATTERNS)
               and not _is_sink_owner(fn)]
    findings = []
    seen_keys = set()
    for entry in entries:
        # Traverse from each entry separately so the finding names the
        # protocol entry whose closure contains the untimed receive.
        reachable = graph.reachable([entry], stop=_is_sink_owner)
        for fn in reachable:
            if not _is_sink(fn):
                continue
            path = graph.find_path([entry], fn, stop=_is_sink_owner)
            if not path:
                continue
            # Traversal never descends into transport code, so the sink is
            # the path's final node; the frame before it is the culprit and
            # the sink element's line is the call site in that frame.
            if len(path) >= 2:
                culprit, culprit_line = path[-2][0], path[-1][1]
            else:
                culprit, culprit_line = entry, entry.line
            key = (f"timed-recv|{culprit.file}|{culprit.qname}|{fn.name}")
            if key in seen_keys:
                continue
            seen_keys.add(key)
            via = " -> ".join(p.name for p, _ in path)
            findings.append(Finding(
                check="timed-recv",
                file=culprit.file, line=culprit_line,
                message=(
                    f"untimed blocking receive {fn.qname} is reachable "
                    f"from protocol entry {entry.qname} ({via}); use the "
                    "deadline variants (RecvFor/RecvAnyFor/GetFor/"
                    "GetAnyFor) or a bounded-slice loop"),
                key=key,
            ))
    return findings
