"""Process-tree accounting from ``/proc``: CPU time and proportional set size.

A server may fork workers, so CPU and memory are always summed over the
whole tree rooted at the launched process.  PSS (proportional set size)
splits each shared page between the processes mapping it, so the sum
over a pre-forked fleet counts shared snapshot pages once.
"""

from __future__ import annotations

import os
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PROC = Path("/proc")


def _stat_fields(pid: int, proc: Path = _PROC) -> list[str] | None:
    try:
        text = (proc / str(pid) / "stat").read_text()
    except OSError:
        return None
    # comm (field 2) may hold spaces and parentheses: split after the last ')'.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int, proc: Path = _PROC) -> list[int]:
    """``root`` and every live descendant of it."""
    children: dict[int, list[int]] = {}
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name), proc)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return sorted(tree)


def tree_cpu_s(root: int, proc: Path = _PROC) -> float:
    """User + system CPU seconds of the tree, including reaped children."""
    ticks = 0
    for pid in process_tree(root, proc):
        fields = _stat_fields(pid, proc)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 (1-based).
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLK_TCK


def pss_kb(pid: int, proc: Path = _PROC) -> int:
    """PSS of one process in kB (0 if it is gone)."""
    try:
        text = (proc / str(pid) / "smaps_rollup").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def tree_pss_kb(root: int, proc: Path = _PROC) -> dict[int, int]:
    """PSS in kB of every process in the tree rooted at ``root``."""
    return {pid: pss_kb(pid, proc) for pid in process_tree(root, proc)}
