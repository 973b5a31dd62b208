"""Run one command and print its peak resident memory, then exit with its status.

The figure is the child's own ru_maxrss, read from os.wait4 when it exits.
On Linux a child's high-water mark starts at what its parent holds when it
is spawned, so this parent imports nothing beyond os and sys and stays a
few MB. Run from the repository root, for example:

    python3 tools/peak_rss.py python3 -m holomimo eigen-report fig2_desk --out out

It prints one line, "peak RSS <MB> MB: <command>", with MB = 2^20 bytes
(ru_maxrss is in KiB on Linux).
"""

import os
import sys


def main(command: list[str]) -> int:
    if not command:
        sys.exit(__doc__)
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(f"peak RSS {usage.ru_maxrss / 1024:.2f} MB: {' '.join(command)}", flush=True)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
