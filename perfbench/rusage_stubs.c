/* Peak resident set size, which OCaml's Unix library does not expose. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

/* ru_maxrss of this process, in KiB. */
value perfbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
