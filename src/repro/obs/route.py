"""Replay one recorded packet's route from a flight-recorder capture.

Usage::

    python -m repro.obs.route capture.jsonl 17
    python -m repro.obs.route capture.jsonl 17 --system pool

Reads a telemetry export taken with ``pool-bench --flight-recorder``,
finds the records whose ``flight_recorder`` ring retains events for the
given packet id, and prints the reconstructed route: the logical
send, every hop with its GPSR mode (a tree packet lists its edges), and
any ARQ activity (losses,
retransmissions, recovery ACKs, exhausted hops).  Exit status ``1``
when no record retains that packet (wrong id, or evicted from the
bounded ring).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping, Sequence

from repro.telemetry.export import read_telemetry_jsonl

__all__ = ["replay_packet", "render_replay", "main"]


def replay_packet(
    record: Mapping[str, Any], pid: int
) -> list[dict[str, Any]]:
    """The retained events of packet ``pid`` in one record, by sequence."""
    block = record.get("flight_recorder")
    if not isinstance(block, Mapping):
        return []
    events = [
        event
        for event in block.get("events", ())
        if int(event.get("pid", -1)) == pid
    ]
    events.sort(key=lambda event: int(event.get("seq", 0)))
    return events


def render_replay(
    record: Mapping[str, Any], events: Sequence[Mapping[str, Any]]
) -> str:
    """Human-readable route trace for one packet in one record."""
    header = (
        f"{record.get('experiment', '')} n={record.get('size', 0)} "
        f"trial={record.get('trial', 0)} system={record.get('system', '')}"
    )
    lines = [header]
    dst: int | None = None
    last_hop_dst: int | None = None
    failed = False
    tree = False
    for event in events:
        kind = event.get("kind")
        src, to = event.get("src"), event.get("dst")
        info = event.get("info")
        if kind == "send":
            dst = int(to) if to is not None else None
            # A tree packet (dissemination or reply collection) names its
            # root as both ends; its hops fan out rather than chain.
            tree = src == to
            lines.append(f"  send {src} -> {to}  category={info}")
        elif kind == "hop":
            last_hop_dst = int(to) if to is not None else None
            mode = info if info is not None else "?"
            lines.append(f"  hop  {src} -> {to}  [{mode}]")
        elif kind == "loss":
            lines.append(f"  loss {src} -> {to}  (attempt {info})")
        elif kind == "retransmit":
            lines.append(f"  retx {src} -> {to}  (attempt {info})")
        elif kind == "ack":
            lines.append(f"  ack  {src} -> {to}")
        elif kind == "failed":
            failed = True
            lines.append(f"  FAIL {src} -> {to}  (ARQ exhausted)")
        else:
            lines.append(f"  {kind} {src} -> {to}  {info}")
    if failed:
        lines.append("  status: undelivered (hop exhausted its retry budget)")
    elif dst is not None and last_hop_dst is not None and (tree or last_hop_dst == dst):
        lines.append("  status: delivered")
    else:
        lines.append("  status: incomplete trace (ring may have evicted hops)")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.route",
        description="replay one recorded packet's route from a capture",
    )
    parser.add_argument("capture", help="telemetry JSONL taken with --flight-recorder")
    parser.add_argument("pid", type=int, help="packet id (see 'send' events)")
    parser.add_argument(
        "--system",
        default=None,
        help="restrict the replay to one system's recorder",
    )
    args = parser.parse_args(argv)
    _header, records = read_telemetry_jsonl(args.capture)
    found = 0
    for record in records:
        if args.system is not None and record.get("system") != args.system:
            continue
        events = replay_packet(record, args.pid)
        if not events:
            continue
        found += 1
        print(render_replay(record, events))
    if not found:
        print(
            f"packet {args.pid} not found in {args.capture}"
            + (f" (system={args.system})" if args.system else "")
            + " — wrong id, flight recorder off, or evicted from the ring",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
