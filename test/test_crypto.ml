open Odex_crypto

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next_int64 (Rng.create ~seed:42) <> Rng.next_int64 c)

let test_rng_copy_and_split () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.next_int64 a);
  let b = Rng.of_state (Rng.state a) in
  Alcotest.(check int64) "copy replays" (Rng.next_int64 a) (Rng.next_int64 b);
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  Alcotest.(check bool) "split independent of parent continuation" true
    (Rng.next_int64 child <> Rng.next_int64 parent)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniformity () =
  let rng = Rng.create ~seed:2 in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = draws / 8 in
  Array.iteri
    (fun i c ->
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    buckets

let test_rng_int_in_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:5 ~hi:9 in
    if v < 5 || v > 9 then Alcotest.fail "int_in_range out of bounds"
  done;
  Alcotest.(check int) "degenerate range" 4 (Rng.int_in_range rng ~lo:4 ~hi:4)

let test_rng_bernoulli () =
  let rng = Rng.create ~seed:4 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.25 then incr hits
  done;
  let frac = Float.of_int !hits /. Float.of_int draws in
  if frac < 0.23 || frac > 0.27 then Alcotest.failf "bernoulli(0.25) rate %.3f" frac;
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_rng_geometric () =
  let rng = Rng.create ~seed:5 in
  let p = 0.2 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Rng.geometric rng p in
    if v < 1 then Alcotest.fail "geometric < 1";
    sum := !sum + v
  done;
  let mean = Float.of_int !sum /. Float.of_int n in
  if Float.abs (mean -. (1. /. p)) > 0.2 then
    Alcotest.failf "geometric mean %.3f, expected %.3f" mean (1. /. p);
  Alcotest.(check int) "p=1 is constant 1" 1 (Rng.geometric rng 1.)

let test_prf () =
  let k = Prf.key_of_int 11 in
  Alcotest.(check int64) "deterministic" (Prf.value k 99) (Prf.value k 99);
  Alcotest.(check bool) "inputs differ" true (Prf.value k 1 <> Prf.value k 2);
  let k2 = Prf.key_of_int 12 in
  Alcotest.(check bool) "keys differ" true (Prf.value k 1 <> Prf.value k2 1);
  Alcotest.(check bool) "pair input matters" true
    (Prf.value_pair k 1 2 <> Prf.value_pair k 2 1);
  for x = 0 to 999 do
    let v = Prf.to_range k x ~bound:13 in
    if v < 0 || v >= 13 then Alcotest.fail "to_range out of bounds"
  done

let test_hash_family_distinct () =
  let fam = Hash_family.create ~k:4 ~size:101 (Prf.key_of_int 21) in
  for x = 0 to 499 do
    let hs = Hash_family.hashes fam x in
    Alcotest.(check int) "k hashes" 4 (Array.length hs);
    let sorted = Array.copy hs in
    Array.sort compare sorted;
    for i = 0 to 2 do
      if sorted.(i) = sorted.(i + 1) then Alcotest.fail "hashes collide"
    done;
    Array.iteri
      (fun i h ->
        let lo, hi = Hash_family.subrange fam i in
        if h < lo || h >= hi then Alcotest.failf "h_%d(%d)=%d outside [%d,%d)" i x h lo hi)
      hs
  done

let test_hash_family_subranges_cover () =
  let fam = Hash_family.create ~k:3 ~size:10 (Prf.key_of_int 22) in
  let lo0, hi0 = Hash_family.subrange fam 0 in
  let lo1, hi1 = Hash_family.subrange fam 1 in
  let lo2, hi2 = Hash_family.subrange fam 2 in
  Alcotest.(check (list (pair int int)))
    "partition covers [0,10)"
    [ (0, 3); (3, 6); (6, 10) ]
    [ (lo0, hi0); (lo1, hi1); (lo2, hi2) ]

(* Replay a swap transcript on [0; ...; n-1]. *)
let replay_swaps n swaps =
  let a = Array.init n (fun i -> i) in
  Array.iter
    (fun (i, j) ->
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t)
    swaps;
  a

let test_permutation_swaps_consistent () =
  let swaps = Permutation.swap_sequence (Rng.create ~seed:32) 20 in
  Alcotest.(check bool) "same seed, same transcript" true
    (swaps = Permutation.swap_sequence (Rng.create ~seed:32) 20);
  Array.iteri
    (fun k (i, j) ->
      if i <> k || j < i || j >= 20 then Alcotest.failf "swap %d is (%d, %d)" k i j)
    swaps

(* Undoing the transcript in reverse order restores the identity, and
   the inverse built from the forward image undoes it pointwise. *)
let test_permutation_roundtrip () =
  let n = 50 in
  let swaps = Permutation.swap_sequence (Rng.create ~seed:31) n in
  let p = replay_swaps n swaps in
  let inv = Array.make n (-1) in
  Array.iteri (fun i x -> inv.(x) <- i) p;
  for i = 0 to n - 1 do
    Alcotest.(check int) "inverse" i inv.(p.(i))
  done;
  for k = n - 1 downto 0 do
    let i, j = swaps.(k) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  Alcotest.(check (array int)) "reversed transcript undoes it" (Array.init n Fun.id) p

(* Fisher-Yates must reach all 3! orders of three elements equally
   often; a Sattolo-style off-by-one (j > i) would reach only the two
   3-cycles. 6,000 draws put 1,000 in each order; +/-15% is ~5 sigma. *)
let test_permutation_uniform_s3 () =
  let rng = Rng.create ~seed:33 in
  let counts = Hashtbl.create 6 in
  let draws = 6_000 in
  for _ = 1 to draws do
    let p = Array.to_list (replay_swaps 3 (Permutation.swap_sequence rng 3)) in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  Alcotest.(check int) "all six orders reached" 6 (Hashtbl.length counts);
  let expected = draws / 6 in
  Hashtbl.iter
    (fun p c ->
      if abs (c - expected) > expected * 15 / 100 then
        Alcotest.failf "order %s drawn %d times, expected ~%d"
          (String.concat "," (List.map string_of_int p)) c expected)
    counts

(* The degenerate sizes: no swaps for n = 0, and the one fixed swap
   (0, 0) for n = 1, so both replay to the identity. *)
let test_permutation_identity () =
  let rng = Rng.create ~seed:34 in
  Alcotest.(check int) "n = 0 has no swaps" 0 (Array.length (Permutation.swap_sequence rng 0));
  Alcotest.(check (array (pair int int))) "n = 1 swaps in place" [| (0, 0) |]
    (Permutation.swap_sequence rng 1);
  Alcotest.(check (array int)) "n = 1 replays to identity" [| 0 |]
    (replay_swaps 1 (Permutation.swap_sequence rng 1))

(* ---------------- cipher engines ---------------- *)

let hex_of_big buf off len =
  String.concat "" (List.init len (fun i -> Printf.sprintf "%02x" (Char.code buf.{off + i})))

let key_00_1f = String.init 32 Char.chr

(* RFC 8439 §2.3.2: block function known-answer vector — key 00..1f,
   nonce 00:00:00:09:00:00:00:4a:00:00:00:00, counter 1. XORing the
   keystream over zeros exposes the raw keystream block. *)
let test_chacha20_kat_block () =
  let nonce = "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let buf = Bigbuf.create 64 in
  Cipher.chacha20_xor_raw ~key:key_00_1f ~nonce ~counter:1 buf ~off:0 ~len:64;
  Alcotest.(check string) "keystream block"
    ("10f1e7e4d13b5915500fdd1fa32071c4" ^ "c7d1f4c733c068030422aa9ac3d46c4e"
   ^ "d2826446079faa0914c2d705d98b02a2" ^ "b5129cd1de164eb9cbd083e8a2503c4e")
    (hex_of_big buf 0 64)

(* RFC 8439 §2.4.2: the "sunscreen" encryption vector — same key, nonce
   00:00:00:00:00:00:00:4a:00:00:00:00, counter 1. Exercises the
   multi-block path with a 114-byte (non-multiple-of-64) message. *)
let test_chacha20_kat_sunscreen () =
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plain =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip \
     for the future, sunscreen would be it."
  in
  let buf = Util.big_of_bytes (Bytes.of_string plain) in
  Cipher.chacha20_xor_raw ~key:key_00_1f ~nonce ~counter:1 buf ~off:0
    ~len:(String.length plain);
  Alcotest.(check string) "ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981" ^ "e97e7aec1d4360c20a27afccfd9fae0b"
   ^ "f91b65c5524733ab8f593dabcd62b357" ^ "1639d624e65152ab8f530c359f0861d8"
   ^ "07ca0dbf500d6a6156a38e088a22b65e" ^ "52bc514d16ccf806818ce91ab7793736"
   ^ "5af90bbf74a35be6b40b8eedf2785e42" ^ "874d")
    (hex_of_big buf 0 (String.length plain));
  (* XOR is an involution: the same call decrypts. *)
  Cipher.chacha20_xor_raw ~key:key_00_1f ~nonce ~counter:1 buf ~off:0
    ~len:(String.length plain);
  Alcotest.(check string) "roundtrip" plain
    (Bytes.sub_string (Util.bytes_of_big buf) 0 (String.length plain))

let test_engine_ids () =
  Alcotest.(check int64) "chacha20 id" 2L (Cipher.engine_id Cipher.Chacha20);
  Alcotest.(check string) "chacha20 name" "chacha20" (Cipher.engine_name Cipher.Chacha20)

let test_cipher_roundtrip () =
  let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 77) in
  let plain = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let len = Bytes.length plain in
  let buf = Util.big_of_bytes plain in
  Cipher.xor_big st ~nonce:5 buf ~off:0 ~len;
  Alcotest.(check bool) "ciphertext differs" true (not (Bytes.equal (Util.bytes_of_big buf) plain));
  Cipher.xor_big st ~nonce:5 buf ~off:0 ~len;
  Alcotest.(check bytes) "roundtrip" plain (Util.bytes_of_big buf)

(* [xor_big] at an interior offset must keystream the region exactly as
   it does a standalone buffer of the same bytes (the keystream is
   region-relative), and must not touch bytes outside it. *)
let test_xor_big_region () =
  let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 99) in
  List.iter
    (fun len ->
      let off = 8 in
      let bytes = Bytes.init (off + len + 5) (fun i -> Char.chr ((i * 11) land 0xFF)) in
      let buf = Util.big_of_bytes bytes in
      let region = Util.big_of_bytes (Bytes.sub bytes off len) in
      Cipher.xor_big st ~nonce:7 buf ~off ~len;
      Cipher.xor_big st ~nonce:7 region ~off:0 ~len;
      let out = Util.bytes_of_big buf in
      Alcotest.(check bytes)
        (Printf.sprintf "region len %d" len)
        (Util.bytes_of_big region) (Bytes.sub out off len);
      Alcotest.(check bytes) "prefix untouched" (Bytes.sub bytes 0 off) (Bytes.sub out 0 off);
      Alcotest.(check bytes) "suffix untouched"
        (Bytes.sub bytes (off + len) 5)
        (Bytes.sub out (off + len) 5))
    [ 0; 1; 7; 8; 17; 63; 64; 65; 130 ];
  Alcotest.check_raises "out-of-bounds region rejected"
    (Invalid_argument "Cipher.xor_big: region out of bounds") (fun () ->
      Cipher.xor_big st ~nonce:0 (Bigbuf.create 4) ~off:2 ~len:3)

(* Re-encrypting the same plaintext under fresh nonces must look fresh
   (§1): every pair of nonces yields distinct ciphertexts, including
   nonces that differ only in their high bits (the 64-bit nonce fills the
   upper two thirds of the RFC nonce). *)
let test_cipher_nonce_freshness () =
  let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 78) in
  let plain = "same plaintext either way" in
  let len = String.length plain in
  let seal nonce =
    let buf = Util.big_of_bytes (Bytes.of_string plain) in
    Cipher.xor_big st ~nonce buf ~off:0 ~len;
    Util.bytes_of_big buf
  in
  let nonces = [ 0; 1; 2; 63; 64; 1 lsl 32; (1 lsl 32) + 1; 1 lsl 61; max_int ] in
  let sealed = List.map seal nonces in
  List.iteri
    (fun i ci ->
      Alcotest.(check bool)
        (Printf.sprintf "nonce %d differs from the plaintext" (List.nth nonces i))
        true
        (not (Bytes.equal ci (Bytes.of_string plain)));
      List.iteri
        (fun j cj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "nonces %d and %d seal apart" (List.nth nonces i) (List.nth nonces j))
              true
              (not (Bytes.equal ci cj)))
        sealed)
    sealed

(* Distinct store keys expand to distinct ChaCha20 keys: the same nonce
   and plaintext seal to pairwise distinct ciphertexts. *)
let test_cipher_key_separation () =
  let plain = Bytes.make 64 '\000' in
  let seal seed =
    let buf = Util.big_of_bytes plain in
    Cipher.xor_big (Cipher.init Cipher.Chacha20 (Cipher.key_of_int seed)) ~nonce:0 buf ~off:0
      ~len:64;
    Util.bytes_of_big buf
  in
  let seeds = [ 0; 1; 2; 3; -1; 1 lsl 40; max_int ] in
  let sealed = List.map seal seeds in
  List.iteri
    (fun i ci ->
      List.iteri
        (fun j cj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "keys %d and %d separate" (List.nth seeds i) (List.nth seeds j))
              true
              (not (Bytes.equal ci cj)))
        sealed)
    sealed

(* A byte-at-a-time reference for [xor_big], written from RFC 8439 and
   the key expansion documented in cipher.ml: the 32-byte key is bytes
   of [Prf.value_pair k (-2) w] for w = 0..3, the nonce is
   [0x00000000 || le64 nonce], and byte i of a region takes byte
   (i mod 64) of keystream block i/64, counting from 0. The C core must
   match it at every length, in particular the sub-block tails and the
   lengths around the 64-byte block boundary. *)
let chacha20_block ~key ~nonce ~counter =
  let mask = 0xFFFF_FFFF in
  let word s i =
    Char.code s.[i]
    lor (Char.code s.[i + 1] lsl 8)
    lor (Char.code s.[i + 2] lsl 16)
    lor (Char.code s.[i + 3] lsl 24)
  in
  let init =
    Array.concat
      [
        [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |];
        Array.init 8 (fun i -> word key (4 * i));
        [| counter land mask |];
        Array.init 3 (fun i -> word nonce (4 * i));
      ]
  in
  let x = Array.copy init in
  let rotl v n = ((v lsl n) lor (v lsr (32 - n))) land mask in
  let qr a b c d =
    x.(a) <- (x.(a) + x.(b)) land mask;
    x.(d) <- rotl (x.(d) lxor x.(a)) 16;
    x.(c) <- (x.(c) + x.(d)) land mask;
    x.(b) <- rotl (x.(b) lxor x.(c)) 12;
    x.(a) <- (x.(a) + x.(b)) land mask;
    x.(d) <- rotl (x.(d) lxor x.(a)) 8;
    x.(c) <- (x.(c) + x.(d)) land mask;
    x.(b) <- rotl (x.(b) lxor x.(c)) 7
  in
  for _ = 1 to 10 do
    qr 0 4 8 12;
    qr 1 5 9 13;
    qr 2 6 10 14;
    qr 3 7 11 15;
    qr 0 5 10 15;
    qr 1 6 11 12;
    qr 2 7 8 13;
    qr 3 4 9 14
  done;
  String.init 64 (fun i ->
      let w = (x.(i / 4) + init.(i / 4)) land mask in
      Char.chr ((w lsr (8 * (i mod 4))) land 0xFF))

let xor_reference seed ~nonce src =
  let pk = Prf.key_of_int seed in
  let key =
    String.init 32 (fun i ->
        let word = Prf.value_pair pk (-2) (i / 8) in
        Char.chr (Int64.to_int (Int64.shift_right_logical word (i mod 8 * 8)) land 0xFF))
  in
  let n = Bytes.make 12 '\000' in
  Bytes.set_int64_le n 4 (Int64.of_int nonce);
  let nonce = Bytes.to_string n in
  let blocks = Array.init ((Bytes.length src + 63) / 64) (fun c -> chacha20_block ~key ~nonce ~counter:c) in
  Bytes.mapi (fun i c -> Char.chr (Char.code c lxor Char.code blocks.(i / 64).[i mod 64])) src

let test_xor_big_matches_bytewise_reference () =
  let seed = 1234 in
  let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int seed) in
  List.iter
    (fun len ->
      let nonce = (len * 7919) + 3 in
      let src = Bytes.init len (fun i -> Char.chr ((i * 37) land 0xFF)) in
      let buf = Util.big_of_bytes src in
      Cipher.xor_big st ~nonce buf ~off:0 ~len;
      Alcotest.(check bytes)
        (Printf.sprintf "len %d" len)
        (xor_reference seed ~nonce src) (Util.bytes_of_big buf))
    (List.init 18 Fun.id @ [ 63; 64; 65; 127; 128; 129; 200; 328 ])

(* xor_run must equal per-region xor_big — the 8-lane SIMD core against
   the scalar core (region counts above and below 8, region lengths
   crossing 64-byte keystream blocks and stopping mid-block). *)
let test_xor_run_matches_xor_big () =
  let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 555) in
  List.iter
    (fun (count, len, stride) ->
      let total = (count * stride) + 16 in
      let mk () = Util.big_of_bytes (Bytes.init total (fun i -> Char.chr ((i * 31) land 0xFF))) in
      let by_run = mk () and by_block = mk () in
      let nonces = Array.init count (fun i -> 1000 + (i * 3)) in
      Cipher.xor_run st ~nonces by_run ~off:8 ~stride ~len;
      Array.iteri
        (fun i nonce -> Cipher.xor_big st ~nonce by_block ~off:(8 + (i * stride)) ~len)
        nonces;
      Alcotest.(check bytes)
        (Printf.sprintf "count=%d len=%d" count len)
        (Util.bytes_of_big by_block) (Util.bytes_of_big by_run))
    [ (1, 40, 48); (3, 160, 168); (8, 160, 160); (9, 64, 72); (20, 328, 328); (5, 0, 8) ]

let test_chacha20_engine_properties () =
  let k = Cipher.key_of_int 808 in
  let st = Cipher.init Cipher.Chacha20 k in
  let len = 200 in
  let plain = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
  let b1 = Util.big_of_bytes plain and b2 = Util.big_of_bytes plain in
  Cipher.xor_big st ~nonce:1 b1 ~off:0 ~len;
  Cipher.xor_big st ~nonce:2 b2 ~off:0 ~len;
  Alcotest.(check bool) "nonces separate streams" true
    (not (Bytes.equal (Util.bytes_of_big b1) (Util.bytes_of_big b2)));
  Alcotest.(check bool) "ciphertext differs from plaintext" true
    (not (Bytes.equal (Util.bytes_of_big b1) plain));
  let c1 = Util.bytes_of_big b1 in
  Cipher.xor_big st ~nonce:1 b1 ~off:0 ~len;
  Alcotest.(check bytes) "involution" plain (Util.bytes_of_big b1);
  (* Same nonce and plaintext under another key: a different
     ciphertext, not merely one that differs from the plaintext. *)
  let st' = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 809) in
  let b3 = Util.big_of_bytes plain in
  Cipher.xor_big st' ~nonce:1 b3 ~off:0 ~len;
  Alcotest.(check bool) "keys separate streams" true
    (not (Bytes.equal c1 (Util.bytes_of_big b3)))

(* ---------------- range mapping ---------------- *)

(* bound = 7 does not divide 2^62, so the modulo reduction is biased by
   about 2^-59 per residue: invisible here. With 70,000 draws each
   residue expects 10,000; +/-10% is ~13 sigma. *)
let test_to_range_uniform () =
  let k = Prf.key_of_int 314 in
  let bound = 7 in
  let draws = 70_000 in
  let buckets = Array.make bound 0 in
  for x = 0 to draws - 1 do
    let v = Prf.to_range k x ~bound in
    if v < 0 || v >= bound then Alcotest.fail "to_range out of bounds";
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = draws / bound in
  Array.iteri
    (fun i c ->
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "residue %d count %d too far from %d" i c expected)
    buckets;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prf.to_range: bound must be positive") (fun () ->
      ignore (Prf.to_range k 0 ~bound:0))

let prop_to_range_bounds =
  Util.qcheck_case ~name:"to_range stays in bounds and is deterministic"
    QCheck2.Gen.(triple int (int_range 1 1_000_000) int)
    (fun (x, bound, seed) ->
      let k = Prf.key_of_int seed in
      let v = Prf.to_range k x ~bound in
      v >= 0 && v < bound && v = Prf.to_range k x ~bound)

let prop_permutation_valid =
  Util.qcheck_case ~name:"random permutation is a bijection"
    QCheck2.Gen.(pair (int_range 0 200) int)
    (fun (n, seed) ->
      let p = replay_swaps n (Permutation.swap_sequence (Rng.create ~seed) n) in
      List.sort compare (Array.to_list p) = List.init n Fun.id)

(* Sealing is an involution at any length and offset: the same call
   opens what it sealed, and nothing outside the region moves. Nonces are
   non-negative, as Storage issues them. *)
let prop_cipher_roundtrip =
  Util.qcheck_case ~name:"cipher roundtrips arbitrary bytes"
    QCheck2.Gen.(quad string (int_range 0 80) int nat)
    (fun (s, off, keyseed, nonce) ->
      let st = Cipher.init Cipher.Chacha20 (Cipher.key_of_int keyseed) in
      let plain = Bytes.cat (Bytes.make off '\x5a') (Bytes.of_string s) in
      let buf = Util.big_of_bytes plain in
      let len = String.length s in
      Cipher.xor_big st ~nonce buf ~off ~len;
      let sealed = Util.bytes_of_big buf in
      Cipher.xor_big st ~nonce buf ~off ~len;
      Bytes.equal plain (Util.bytes_of_big buf)
      && Bytes.equal (Bytes.sub plain 0 off) (Bytes.sub sealed 0 off))

let prop_rng_int_bounds =
  Util.qcheck_case ~name:"Rng.int stays in bounds"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* The splitmix64 stream itself, pinned by value: a changed state
   representation that altered the stream fails here by name, before any
   downstream digest moves. *)
let test_rng_stream_pinned () =
  let first4 seed =
    let r = Rng.create ~seed in
    List.init 4 (fun _ -> Rng.next_int64 r)
  in
  Alcotest.(check (list int64)) "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L ]
    (first4 0);
  Alcotest.(check (list int64)) "seed 42"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L; 885919558081284366L ]
    (first4 42)

(* A coin allocates nothing: the generator state is stepped in place.
   Minor words are counted across a long loop, so fixed setup noise
   cannot mask per-draw garbage. *)
let test_rng_bool_does_not_allocate () =
  let r = Rng.create ~seed:7 in
  let heads = ref 0 in
  let draws = 100_000 in
  for _ = 1 to 1000 do
    heads := !heads + Bool.to_int (Rng.bool r)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    heads := !heads + Bool.to_int (Rng.bool r)
  done;
  let per_draw = (Gc.minor_words () -. w0) /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per Rng.bool (want < 0.5)" per_draw)
    true (per_draw < 0.5);
  Alcotest.(check bool) "the coins are not constant" true (!heads > 0 && !heads < draws + 1000)

(* Bigbuf.blit is a memmove: on one buffer, a region copied forward or
   backward over itself must land as Bytes.blit lands it. *)
let prop_bigbuf_blit_overlap =
  let open QCheck2.Gen in
  let gen =
    int_range 1 96 >>= fun n ->
    quad (pure n) (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 n)
  in
  Util.qcheck_case ~name:"bigbuf blit on overlapping regions = Bytes.blit" ~count:500 gen
    (fun (n, soff, doff, len) ->
      let len = min len (n - max soff doff) in
      let model = Bytes.init n (fun i -> Char.chr ((i * 37) land 0xFF)) in
      let buf = Util.big_of_bytes model in
      Bytes.blit model soff model doff len;
      Bigbuf.blit buf soff buf doff len;
      Bytes.equal (Util.bytes_of_big buf) model)

(* A refused region moves nothing: the range check precedes the copy. *)
let test_bigbuf_refusals_leave_dst () =
  let src = Util.big_of_bytes (Bytes.make 16 'x') in
  let dst = Util.big_of_bytes (Bytes.init 16 (fun i -> Char.chr (65 + i))) in
  let before = Util.bytes_of_big dst in
  let refused what f =
    (match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check bytes) (what ^ ": destination unchanged") before (Util.bytes_of_big dst)
  in
  refused "blit past the destination" (fun () -> Bigbuf.blit src 0 dst 8 9);
  refused "blit past the source" (fun () -> Bigbuf.blit src 9 dst 0 8);
  refused "blit negative length" (fun () -> Bigbuf.blit src 0 dst 0 (-1));
  refused "blit negative offset" (fun () -> Bigbuf.blit src 0 dst (-1) 4);
  refused "zero past the end" (fun () -> Bigbuf.zero dst 10 7);
  refused "zero negative length" (fun () -> Bigbuf.zero dst 0 (-3));
  Bigbuf.zero dst 4 8;
  Alcotest.(check string) "zero clears exactly its region" "ABCD\000\000\000\000\000\000\000\000MNOP"
    (Bytes.to_string (Util.bytes_of_big dst))

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng copy/split", `Quick, test_rng_copy_and_split);
    ("rng stream pinned", `Quick, test_rng_stream_pinned);
    ("rng bool allocation-free", `Quick, test_rng_bool_does_not_allocate);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng int_in_range", `Quick, test_rng_int_in_range);
    ("rng bernoulli", `Quick, test_rng_bernoulli);
    ("rng geometric", `Quick, test_rng_geometric);
    ("prf basics", `Quick, test_prf);
    ("hash family distinctness", `Quick, test_hash_family_distinct);
    ("hash family partition", `Quick, test_hash_family_subranges_cover);
    ("permutation roundtrip", `Quick, test_permutation_roundtrip);
    ("permutation swap transcript", `Quick, test_permutation_swaps_consistent);
    ("permutation uniform on S3", `Quick, test_permutation_uniform_s3);
    ("permutation identity", `Quick, test_permutation_identity);
    ("cipher roundtrip", `Quick, test_cipher_roundtrip);
    ("cipher xor_big region", `Quick, test_xor_big_region);
    ("cipher nonce freshness", `Quick, test_cipher_nonce_freshness);
    ("cipher key separation", `Quick, test_cipher_key_separation);
    ("cipher xor vs bytewise reference", `Quick, test_xor_big_matches_bytewise_reference);
    ("chacha20 rfc8439 block vector", `Quick, test_chacha20_kat_block);
    ("chacha20 rfc8439 sunscreen vector", `Quick, test_chacha20_kat_sunscreen);
    ("cipher engine ids", `Quick, test_engine_ids);
    ("cipher xor_run matches xor_big", `Quick, test_xor_run_matches_xor_big);
    ("chacha20 engine properties", `Quick, test_chacha20_engine_properties);
    ("prf to_range uniformity", `Quick, test_to_range_uniform);
    ("bigbuf refused regions move nothing", `Quick, test_bigbuf_refusals_leave_dst);
    prop_bigbuf_blit_overlap;
    prop_to_range_bounds;
    prop_permutation_valid;
    prop_cipher_roundtrip;
    prop_rng_int_bounds;
  ]
