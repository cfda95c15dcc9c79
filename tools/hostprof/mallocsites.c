// Malloc-site sampler, loaded with LD_PRELOAD.
//
// Counts every malloc() of the process it is loaded into (never its
// children) and records the call stack, with backtrace(), of every
// MALLOCSITES_EVERY-th one (default 1009). At exit it writes
// MALLOCSITES_OUT: the total malloc count, the executable mappings of the
// process (so position-independent binaries resolve), then one line per
// distinct sampled stack with its count. tools/hostprof/symbolize.py turns
// that into per-site tables. operator new allocates through malloc, so C++
// allocations are counted too; calloc/realloc are not. See
// tools/hostprof/README.md.
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

enum {
  kDepth = 24,               // frames kept per sample, malloc itself included
  kMaxSamples = 1 << 17,     // 128k stacks, ~25 MB of address space
};

struct stack {
  int depth;
  uintptr_t pc[kDepth];
};

extern void* __libc_malloc(size_t n);

static struct stack samples[kMaxSamples];
static atomic_ulong mallocs;
static atomic_size_t next_sample;
static unsigned long every = 1009;
static pid_t owner;
static int active;
static char out_path[4096];
// backtrace() allocates the first time it runs (it loads the unwinder);
// the flag keeps that, and any allocation it makes, out of the samples.
static __thread int in_hook __attribute__((tls_model("initial-exec")));

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  if (!active || in_hook) return p;
  const unsigned long k = atomic_fetch_add_explicit(&mallocs, 1, memory_order_relaxed) + 1;
  if (k % every == 0) {
    in_hook = 1;
    const size_t i = atomic_fetch_add_explicit(&next_sample, 1, memory_order_relaxed);
    if (i < kMaxSamples) samples[i].depth = backtrace((void**)samples[i].pc, kDepth);
    in_hook = 0;
  }
  return p;
}

static int by_stack(const void* a, const void* b) {
  const struct stack* x = (const struct stack*)a;
  const struct stack* y = (const struct stack*)b;
  if (x->depth != y->depth) return x->depth < y->depth ? -1 : 1;
  for (int i = 0; i < x->depth; ++i) {
    if (x->pc[i] != y->pc[i]) return x->pc[i] < y->pc[i] ? -1 : 1;
  }
  return 0;
}

__attribute__((constructor)) static void mallocsites_start(void) {
  const char* out = getenv("MALLOCSITES_OUT");
  if (out == NULL || out[0] == '\0' || strlen(out) >= sizeof(out_path)) return;
  strcpy(out_path, out);
  const char* rate = getenv("MALLOCSITES_EVERY");
  if (rate != NULL && atol(rate) > 0) every = (unsigned long)atol(rate);
  // Only this process: exec'd children must not load the sampler again.
  unsetenv("MALLOCSITES_OUT");
  unsetenv("LD_PRELOAD");
  owner = getpid();
  in_hook = 1;  // load the unwinder now, outside any sample
  void* warm[2];
  backtrace(warm, 2);
  in_hook = 0;
  active = 1;
}

__attribute__((destructor)) static void mallocsites_stop(void) {
  if (owner == 0 || getpid() != owner) return;
  active = 0;
  size_t n = atomic_load(&next_sample);
  const size_t dropped = n > kMaxSamples ? n - kMaxSamples : 0;
  if (n > kMaxSamples) n = kMaxSamples;

  FILE* out = fopen(out_path, "w");
  if (out == NULL) {
    fprintf(stderr, "mallocsites: cannot write %s\n", out_path);
    return;
  }
  fprintf(out, "# mallocsites pid=%d every=%lu mallocs=%lu samples=%zu dropped=%zu\n", (int)owner,
          every, atomic_load(&mallocs), n, dropped);
  // Executable mappings: "M start end file_offset path".
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4608];
    while (fgets(line, sizeof(line), maps) != NULL) {
      unsigned long start = 0, end = 0, offset = 0;
      char perms[8] = {0};
      char path[4096] = {0};
      if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &start, &end, perms, &offset,
                 path) >= 4 &&
          perms[2] == 'x') {
        fprintf(out, "M %lx %lx %lx %s\n", start, end, offset, path[0] ? path : "[anon]");
      }
    }
    fclose(maps);
  }
  // Distinct stacks with their counts: "S count pc0 pc1 ...", pc0 in malloc.
  qsort(samples, n, sizeof(samples[0]), by_stack);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && by_stack(&samples[j], &samples[i]) == 0) ++j;
    fprintf(out, "S %zu", j - i);
    for (int f = 0; f < samples[i].depth; ++f) fprintf(out, " %lx", (unsigned long)samples[i].pc[f]);
    fputc('\n', out);
    i = j;
  }
  fclose(out);
}
