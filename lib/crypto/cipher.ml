type key = Prf.key

let key_of_int = Prf.key_of_int
type engine = Chacha20

let engine_id Chacha20 = 2L
let engine_name Chacha20 = "chacha20"

let check_engine_id ~who id =
  if id <> engine_id Chacha20 then
    invalid_arg (Printf.sprintf "%s: retired cipher engine id %Ld" who id)

external chacha20_xor_stub :
  string -> string -> int -> Bigbuf.t -> int -> int -> unit
  = "odex_chacha20_xor_byte" "odex_chacha20_xor"
[@@noalloc]

(* The nonce array is the caller's int array, read in place by the stub
   (tagged immediates) — no per-call marshalling buffer. *)
external chacha20_xor_many_stub :
  string -> int array -> Bigbuf.t -> int -> int -> int -> int -> unit
  = "odex_chacha20_xor_many_byte" "odex_chacha20_xor_many"
[@@noalloc]

let chacha20_xor_raw ~key ~nonce ~counter buf ~off ~len =
  if String.length key <> 32 then invalid_arg "Cipher.chacha20_xor_raw: key must be 32 bytes";
  if String.length nonce <> 12 then
    invalid_arg "Cipher.chacha20_xor_raw: nonce must be 12 bytes";
  if off < 0 || len < 0 || off + len > Bigbuf.length buf then
    invalid_arg "Cipher.chacha20_xor_raw: region out of bounds";
  chacha20_xor_stub key nonce counter buf off len

(* The expanded 256-bit ChaCha key. *)
type state = string

(* The 256-bit ChaCha key is expanded from the 64-bit store key through
   the PRF at a domain-separated input ([x = -2] collides with no block
   nonce: sealing nonces are non-negative and the plaintext marker is
   -1). The expansion is fixed forever — it is part of the on-disk
   format of every store. *)
let init Chacha20 k =
  String.init 32 (fun i ->
      let word = Prf.value_pair k (-2) (i lsr 3) in
      Char.chr (Int64.to_int (Int64.shift_right_logical word ((i land 7) * 8)) land 0xff))

let chacha_nonce_of nonce =
  let b = Bytes.make 12 '\000' in
  Bytes.set_int64_le b 4 (Int64.of_int nonce);
  Bytes.unsafe_to_string b

let xor_big st ~nonce buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bigbuf.length buf then
    invalid_arg "Cipher.xor_big: region out of bounds";
  chacha20_xor_stub st (chacha_nonce_of nonce) 0 buf off len

let xor_run st ~nonces buf ~off ~stride ~len =
  let count = Array.length nonces in
  if len < 0 || len > stride then invalid_arg "Cipher.xor_run: len must be in [0, stride]";
  if count > 0
     && (off < 0 || stride < 0 || off + ((count - 1) * stride) + len > Bigbuf.length buf)
  then invalid_arg "Cipher.xor_run: region out of bounds";
  if count > 0 && len > 0 then chacha20_xor_many_stub st nonces buf off stride len count
