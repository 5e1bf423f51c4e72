/* Monotonic host clock for the cost benchmark. CLOCK_MONOTONIC is the
   clock the OCaml 5 runtime stamps Runtime_events with, so benchmark
   spans and GC intervals share one time base. */

#include <time.h>
#include <caml/mlvalues.h>

intnat bench_cost_now_ns(value unit)
{
  struct timespec t;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return (intnat)t.tv_sec * 1000000000 + (intnat)t.tv_nsec;
}

value bench_cost_now_ns_byte(value unit)
{
  return Val_long(bench_cost_now_ns(unit));
}

