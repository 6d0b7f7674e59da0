"""Server CPU time and peak RSS, read from ``/proc``."""

from __future__ import annotations

import os
from typing import Dict, List

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants (fleet workers included)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(children.get(current, ()))
    return out


def cpu_seconds(pids: List[int]) -> float:
    """utime + stime summed over ``pids`` (exited ones count 0)."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def peak_rss_mb(pids: List[int]) -> float:
    """VmHWM summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
