#!/usr/bin/env bash
# Sample where a program's CPU time goes, without perf:
#
#   scripts/profile.sh [-f FRAME] [-n TOP] [-o FILE] -- <command> [args...]
#
# e.g. scripts/profile.sh -f host_main -- benchmark/target/release/lcibench \
#          --workload bfs_chain_abelian --seed 1 --seconds 5 --trace 0
#
# A ~40-line C sampler, built with the system gcc and LD_PRELOADed into the
# command, arms ITIMER_PROF (997 samples per CPU-second) and on every SIGPROF
# writes one line — thread id, the interrupted PC, the return addresses above
# it — with a single write(2), so threads sampled at once never interleave
# their records (-o keeps them, after a copy of the process's load map). At exit the samples are symbolised
# with `addr2line -i` (inlined frames included) against the executable's PIE
# load base; addresses in shared objects are named by the object ([vdso],
# libc.so.6, ...). Three tables follow, over the samples whose stack holds a
# frame containing FRAME (all samples without -f): *leaf* — the innermost
# function, where the time is spent —, *inclusive* — every function on the
# stack, where the time is spent under — and *libc by caller* — the samples
# whose leaf is in libc (one `[libc.so.6]` row of the leaf table: memcpy,
# malloc, free, ...) charged to the innermost function of the executable
# above them, i.e. whose copy or allocation it is. Build with debug line
# tables (the workspace's release profile has them) for useful names.
set -euo pipefail
frame="" top=25 out=""
while getopts "f:n:o:" opt; do
    case "$opt" in
        f) frame="$OPTARG" ;;
        n) top="$OPTARG" ;;
        o) out="$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ "${1:-}" = "--" ] && shift
[ $# -gt 0 ] || { echo "usage: $0 [-f FRAME] [-n TOP] [-o FILE] -- <command> [args...]" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
out="${out:-$work/samples}"
cat >"$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

static int fd = -1;

static int hex(char *p, unsigned long v) { /* async-signal-safe " %lx" */
    char tmp[16]; int n = 0, len = 0;
    do tmp[n++] = "0123456789abcdef"[v & 15]; while (v >>= 4);
    p[len++] = ' ';
    while (n) p[len++] = tmp[--n];
    return len;
}

static void on_prof(int sig, siginfo_t *si, void *uc) {
    void *pcs[64]; char line[64 * 17 + 32];
    unsigned long pc = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
    int n = backtrace(pcs, 64), i = 2, len = hex(line, syscall(SYS_gettid));
    for (int j = 0; j < n; j++) /* skip the handler's own frames */
        if ((unsigned long)pcs[j] == pc) { i = j + 1; break; }
    len += hex(line + len, pc);
    for (; i < n && len < (int)sizeof line - 18; i++) len += hex(line + len, (unsigned long)pcs[i]);
    line[len++] = '\n';
    (void)!write(fd, line + 1, len - 1); (void)sig; (void)si;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("PROFILE_OUT");
    char buf[4096]; ssize_t r; void *warm;
    if (!path || (fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644)) < 0) return;
    int maps = open("/proc/self/maps", O_RDONLY);     /* the load map, for symbolising */
    while ((r = read(maps, buf, sizeof buf)) > 0) (void)!write(fd, buf, r);
    close(maps);
    backtrace(&warm, 1);                              /* load the unwinder outside a handler */
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000000 / 997}, {0, 1000000 / 997}};
    setitimer(ITIMER_PROF, &it, 0);
}
EOF
gcc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"
exe="$(command -v "$1")"
PROFILE_OUT="$out" LD_PRELOAD="$work/sampler.so" "$@" >&2

python3 - "$out" "$exe" "$frame" "$top" <<'EOF'
import collections, subprocess, sys
path, exe, frame, top = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
maps, samples = [], []
for line in open(path):
    f = line.split()
    if "-" in f[0]:  # a /proc/self/maps line: lo-hi perms offset dev inode [path]
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "?"))
    else:
        samples.append([int(x, 16) for x in f[1:]])
real = __import__("os").path.realpath(exe)
base = min(lo - off for lo, hi, off, p in maps if p == real)
def where(a):
    return next((p for lo, hi, off, p in maps if lo <= a < hi), "?")
# The leaf is the PC itself; a caller frame is a return address, so look up
# the call one byte before it.
queries = sorted({(a - base - (i > 0)) for s in samples for i, a in enumerate(s) if where(a) == real})
names = {}
if queries:
    text = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", real],
                          input="\n".join(hex(q) for q in queries), capture_output=True,
                          text=True, check=True).stdout.splitlines()
    # Per address: its "0x..." line, then (function, file:line) pairs,
    # innermost inlined function first.
    for l in text:
        if l.startswith("0x") and all(c in "0123456789abcdef" for c in l[2:]):
            cur, k = names.setdefault(int(l, 16), []), 0
        else:
            if k % 2 == 0:
                cur.append(l)
            k += 1
def frames(s):
    out = []
    for i, a in enumerate(s):
        w = where(a)
        if w == real:
            out.append(names.get(a - base - (i > 0)) or ["??"])
        else:
            out.append(["[" + w.rsplit("/", 1)[-1].strip("[]") + "]"])
    return out
leaf, incl, libc, n = collections.Counter(), collections.Counter(), collections.Counter(), 0
for s in samples:
    fr = frames(s)
    flat = [name for f in fr for name in f]
    if frame and not any(frame in name for name in flat):
        continue
    n += 1
    leaf[fr[0][0]] += 1
    for name in set(flat):
        incl[name] += 1
    if fr[0][0].startswith("[libc"):
        libc[next((f[0] for f, a in zip(fr, s) if where(a) == real), "??")] += 1
print(f"{n} samples of {len(samples)}" + (f" with a frame containing '{frame}'" if frame else ""))
for title, table in (("leaf", leaf), ("inclusive", incl), ("libc by caller", libc)):
    print(f"\n{title}:")
    for name, c in table.most_common(top):
        print(f"{100 * c / max(n, 1):6.1f} %  {c:7d}  {name[:150]}")
EOF
