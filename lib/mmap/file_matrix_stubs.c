/* Eager release of a file mapping made by Unix.map_file.

   The runtime unmaps a mapped bigarray only when the collector finalizes
   it, and mapped bigarrays put no pressure on the collector, so a loop
   that maps window after window keeps every one of them resident until
   some unrelated major collection. This stub releases one mapping now.

   Only a 1-D mapped-file bigarray with no sub-array proxy is released:
   a proxy means another bigarray shares the mapping, and unmapping it
   would leave that view dangling. After the release the bigarray reads
   as length 0 with a NULL data pointer, so a bounds-checked access
   raises Invalid_argument, a stray unchecked access faults instead of
   reading whatever is mapped at that address next, and the runtime's
   finalizer (which unmaps [byte size] bytes) has nothing left to do. */

#include <stdint.h>
#include <sys/mman.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/signals.h>

value xpose_fm_unmap(value vba)
{
  struct caml_ba_array *b = Caml_ba_array_val(vba);
  uintnat page, delta, len;
  void *addr;

  if ((b->flags & CAML_BA_MANAGED_MASK) != CAML_BA_MAPPED_FILE
      || b->num_dims != 1 || b->proxy != NULL || b->data == NULL
      || b->dim[0] == 0)
    return Val_false;
  len = caml_ba_byte_size(b);
  page = (uintnat)sysconf(_SC_PAGESIZE);
  /* Unix.map_file maps from the page boundary below the requested file
     offset and hands out a pointer [delta] bytes into that mapping. */
  delta = (uintnat)b->data % page;
  addr = (void *)((uintnat)b->data - delta);
  b->dim[0] = 0;
  b->data = NULL;
  caml_enter_blocking_section();
  msync(addr, len + delta, MS_ASYNC);
  munmap(addr, len + delta);
  caml_leave_blocking_section();
  return Val_true;
}
