/* CPU-time clocks: this process's, and another process's by pid. On a
   KVM guest with steal-time accounting these clocks do not advance
   while the host runs other guests on the vCPU, unlike CLOCK_MONOTONIC. */

#include <errno.h>
#include <string.h>
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>

static value ns_of_clock(clockid_t id, const char *what)
{
  struct timespec ts;
  if (clock_gettime(id, &ts) != 0) caml_failwith(what);
  return caml_copy_double((double)ts.tv_sec * 1e9 + (double)ts.tv_nsec);
}

value xb_self_cpu_ns(value unit)
{
  (void)unit;
  return ns_of_clock(CLOCK_PROCESS_CPUTIME_ID, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
}

value xb_pid_cpu_ns(value pid)
{
  clockid_t id;
  int err = clock_getcpuclockid((pid_t)Int_val(pid), &id);
  if (err != 0) caml_failwith(strerror(err));
  return ns_of_clock(id, "clock_gettime(process cpu clock)");
}
