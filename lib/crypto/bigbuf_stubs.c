/* Byte moves on char bigarrays for Bigbuf.
 *
 *   odex_bigbuf_blit  memmove between two regions (they may overlap)
 *   odex_bigbuf_fill  memset of one region to a byte
 *
 * Both are [@@noalloc] on the OCaml side: they neither allocate nor
 * raise, so the caller (bigbuf.ml) checks every region before the call,
 * and a refused region leaves the destination untouched. The regions
 * are off-heap, so the GC never moves them under the copy.
 */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value odex_bigbuf_blit(value vsrc, value vsoff, value vdst, value vdoff, value vlen)
{
  const unsigned char *src = (const unsigned char *)Caml_ba_data_val(vsrc) + Long_val(vsoff);
  unsigned char *dst = (unsigned char *)Caml_ba_data_val(vdst) + Long_val(vdoff);
  memmove(dst, src, (size_t)Long_val(vlen));
  return Val_unit;
}

CAMLprim value odex_bigbuf_fill(value vbuf, value voff, value vlen, value vbyte)
{
  unsigned char *p = (unsigned char *)Caml_ba_data_val(vbuf) + Long_val(voff);
  memset(p, Int_val(vbyte), (size_t)Long_val(vlen));
  return Val_unit;
}
