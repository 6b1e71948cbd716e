type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  Bigarray.Array1.fill b '\000';
  b

let length (b : t) = Bigarray.Array1.dim b
let set (b : t) i c = Bigarray.Array1.set b i c
let unsafe_get (b : t) i = Bigarray.Array1.unsafe_get b i

(* Compiler primitives: unaligned native-endian 64-bit access on a char
   bigarray. The [_le] wrappers byteswap on big-endian hosts — the
   [Sys.big_endian] test is a compile-time constant, so the common
   little-endian build pays nothing. *)
external unsafe_get_64_ne : t -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set_64_ne : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

let bswap64 = Int64.(fun x ->
    let b i = logand (shift_right_logical x (i * 8)) 0xFFL in
    logor
      (logor
         (logor (shift_left (b 0) 56) (shift_left (b 1) 48))
         (logor (shift_left (b 2) 40) (shift_left (b 3) 32)))
      (logor
         (logor (shift_left (b 4) 24) (shift_left (b 5) 16))
         (logor (shift_left (b 6) 8) (b 7))))

let unsafe_get64_le b i =
  let v = unsafe_get_64_ne b i in
  if Sys.big_endian then bswap64 v else v

let unsafe_set64_le b i v =
  unsafe_set_64_ne b i (if Sys.big_endian then bswap64 v else v)

let check_range b i len op =
  if i < 0 || len < 0 || i > length b - len then
    invalid_arg (Printf.sprintf "Bigbuf.%s: region [%d, %d) out of bounds (length %d)" op i (i + len) (length b))

let set64_le b i v =
  check_range b i 8 "set64_le";
  unsafe_set64_le b i v

(* memmove and memset behind a range check: the stubs neither allocate
   nor raise, so every region is validated here first. *)
external blit_stub : t -> int -> t -> int -> int -> unit = "odex_bigbuf_blit" [@@noalloc]
external fill_stub : t -> int -> int -> int -> unit = "odex_bigbuf_fill" [@@noalloc]

let blit src soff dst doff len =
  check_range src soff len "blit (src)";
  check_range dst doff len "blit (dst)";
  blit_stub src soff dst doff len

let zero b off len =
  check_range b off len "zero";
  fill_stub b off len 0
