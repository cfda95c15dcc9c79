// SIGPROF program-counter sampler, loaded with LD_PRELOAD.
//
// Samples the PC of the process it is loaded into (never its children) at
// PCSAMPLE_HZ (default 997) ticks of consumed CPU time, and at exit writes
// PCSAMPLE_OUT: the executable mappings of the process, then one line per
// distinct PC with its sample count. tools/hostprof/symbolize.py turns
// that into per-function tables. Unlike gprof, nothing is instrumented, so
// coroutine bodies (.actor functions) and lambdas are credited where the
// time was actually spent. See tools/hostprof/README.md.
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 22 };  // 4M samples, ~70 min at 997 Hz

static uintptr_t samples[kMaxSamples];
static atomic_size_t next_sample;
static pid_t owner;
static char out_path[4096];
static int hz = 997;

static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  if (getpid() != owner) return;
  const ucontext_t* uc = (const ucontext_t*)ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcsample: unsupported architecture"
#endif
  const size_t i = atomic_fetch_add_explicit(&next_sample, 1, memory_order_relaxed);
  if (i < kMaxSamples) samples[i] = pc;
}

static int by_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

__attribute__((constructor)) static void pcsample_start(void) {
  const char* out = getenv("PCSAMPLE_OUT");
  if (out == NULL || out[0] == '\0' || strlen(out) >= sizeof(out_path)) return;
  strcpy(out_path, out);
  const char* rate = getenv("PCSAMPLE_HZ");
  if (rate != NULL && atoi(rate) > 0) hz = atoi(rate);
  // Only this process: exec'd children must not load the sampler again.
  unsetenv("PCSAMPLE_OUT");
  unsetenv("LD_PRELOAD");
  owner = getpid();

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000000 / hz;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void pcsample_stop(void) {
  if (owner == 0 || getpid() != owner) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  size_t n = atomic_load(&next_sample);
  const size_t dropped = n > kMaxSamples ? n - kMaxSamples : 0;
  if (n > kMaxSamples) n = kMaxSamples;

  FILE* out = fopen(out_path, "w");
  if (out == NULL) {
    fprintf(stderr, "pcsample: cannot write %s\n", out_path);
    return;
  }
  fprintf(out, "# pcsample pid=%d hz=%d samples=%zu dropped=%zu\n", (int)owner, hz, n, dropped);
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
  // Distinct PCs with their counts: "P pc count".
  qsort(samples, n, sizeof(samples[0]), by_pc);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    fprintf(out, "P %lx %zu\n", (unsigned long)samples[i], j - i);
    i = j;
  }
  fclose(out);
}
