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
  let b = Rng.copy a in
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

let test_permutation_roundtrip () =
  let rng = Rng.create ~seed:31 in
  let p = Permutation.random rng 50 in
  Alcotest.(check bool) "valid" true (Permutation.is_valid p);
  let inv = Permutation.inverse p in
  for i = 0 to 49 do
    Alcotest.(check int) "inverse" i (Permutation.apply inv (Permutation.apply p i));
    Alcotest.(check int) "preimage" i (Permutation.preimage p (Permutation.apply p i))
  done

let test_permutation_swaps_consistent () =
  let rng = Rng.create ~seed:32 in
  let swaps = Permutation.swap_sequence (Rng.copy rng) 20 in
  let p1 = Permutation.of_swaps 20 swaps in
  let p2 = Permutation.random rng 20 in
  for i = 0 to 19 do
    Alcotest.(check int) "same permutation" (Permutation.apply p1 i) (Permutation.apply p2 i)
  done;
  Array.iter
    (fun (i, j) -> if j < i then Alcotest.fail "swap goes backwards")
    swaps

let test_permutation_permute_array () =
  let rng = Rng.create ~seed:33 in
  let p = Permutation.random rng 10 in
  let a = Array.init 10 (fun i -> i * 100) in
  let out = Permutation.permute_array p a in
  Array.iteri (fun i x -> Alcotest.(check int) "moved" x out.(Permutation.apply p i)) a;
  Alcotest.(check bool) "multiset" true
    (List.sort compare (Array.to_list out) = List.sort compare (Array.to_list a))

let test_permutation_identity () =
  let p = Permutation.identity 5 in
  for i = 0 to 4 do
    Alcotest.(check int) "id" i (Permutation.apply p i)
  done

let test_cipher_roundtrip () =
  let k = Cipher.key_of_int 77 in
  let plain = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let ct = Cipher.encrypt k ~nonce:5 plain in
  Alcotest.(check bool) "ciphertext differs" true (not (Bytes.equal ct plain));
  Alcotest.(check bytes) "roundtrip" plain (Cipher.decrypt k ~nonce:5 ct)

let test_cipher_nonce_freshness () =
  let k = Cipher.key_of_int 78 in
  let plain = Bytes.of_string "same plaintext either way" in
  let c1 = Cipher.encrypt k ~nonce:1 plain in
  let c2 = Cipher.encrypt k ~nonce:2 plain in
  Alcotest.(check bool) "re-encryption looks fresh" true (not (Bytes.equal c1 c2))

(* Byte-at-a-time reference for the word-at-a-time keystream XOR: byte i
   takes byte (i mod 8) of keystream word i/8. [Cipher.key_of_int] is
   PRF key derivation, so a [Prf.key] from the same seed generates the
   cipher's keystream. The production code must match the reference on
   every length, in particular the 1..7-byte tails and the empty and
   sub-word inputs. *)
let xor_reference pk ~nonce src =
  Bytes.mapi
    (fun i c ->
      let word = Prf.value_pair pk nonce (i / 8) in
      let ks = Int64.to_int (Int64.shift_right_logical word (i mod 8 * 8)) land 0xff in
      Char.chr (Char.code c lxor ks))
    src

let test_xor_stream_matches_bytewise_reference () =
  let k = Cipher.key_of_int 1234 and pk = Prf.key_of_int 1234 in
  for len = 0 to 17 do
    let src = Bytes.init len (fun i -> Char.chr ((i * 37) land 0xFF)) in
    Alcotest.(check bytes)
      (Printf.sprintf "len %d" len)
      (xor_reference pk ~nonce:len src)
      (Cipher.xor_stream k ~nonce:len src)
  done

let test_xor_into_region () =
  (* [xor_into] at an interior offset must keystream the region exactly
     as [xor_stream] does a standalone buffer of the same bytes (indices
     are region-relative), and must not touch bytes outside it. *)
  let k = Cipher.key_of_int 99 in
  for len = 0 to 17 do
    let off = 8 in
    let buf = Bytes.init (off + len + 5) (fun i -> Char.chr ((i * 11) land 0xFF)) in
    let orig = Bytes.copy buf in
    let region = Bytes.sub buf off len in
    Cipher.xor_into k ~nonce:7 buf ~off ~len;
    Alcotest.(check bytes)
      (Printf.sprintf "region len %d" len)
      (Cipher.xor_stream k ~nonce:7 region)
      (Bytes.sub buf off len);
    Alcotest.(check bytes) "prefix untouched" (Bytes.sub orig 0 off) (Bytes.sub buf 0 off);
    Alcotest.(check bytes) "suffix untouched"
      (Bytes.sub orig (off + len) 5)
      (Bytes.sub buf (off + len) 5)
  done;
  Alcotest.check_raises "out-of-bounds region rejected"
    (Invalid_argument "Cipher.xor_into: region out of bounds") (fun () ->
      Cipher.xor_into k ~nonce:0 (Bytes.create 4) ~off:2 ~len:3)

let test_cipher_key_separation () =
  let plain = Bytes.of_string "hello" in
  let c1 = Cipher.encrypt (Cipher.key_of_int 1) ~nonce:0 plain in
  let c2 = Cipher.encrypt (Cipher.key_of_int 2) ~nonce:0 plain in
  Alcotest.(check bool) "keys separate" true (not (Bytes.equal c1 c2))

(* ---------------- cipher engines ---------------- *)

let hex_of_big buf off len =
  String.concat "" (List.init len (fun i -> Printf.sprintf "%02x" (Char.code (Bigbuf.get buf (off + i)))))

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
  let buf = Bigbuf.of_bytes (Bytes.of_string plain) in
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
  Alcotest.(check string) "roundtrip" plain (Bigbuf.sub_string buf 0 (String.length plain))

let test_engine_ids () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "id roundtrips" true (Cipher.engine_of_id (Cipher.engine_id e) = Some e);
      Alcotest.(check bool) "name roundtrips" true
        (Cipher.engine_of_name (Cipher.engine_name e) = Some e))
    [ Cipher.Prf_xor; Cipher.Chacha20 ];
  Alcotest.(check bool) "unknown id" true (Cipher.engine_of_id 99L = None);
  Alcotest.(check bool) "unknown name" true (Cipher.engine_of_name "rot13" = None)

(* The Bigbuf Prf_xor path must produce byte-identical output to the
   historical bytes path — stores sealed before the engine abstraction
   must reopen bit-exactly. *)
let test_xor_big_matches_bytes_path () =
  let k = Cipher.key_of_int 4242 in
  let st = Cipher.init Cipher.Prf_xor k in
  for len = 0 to 17 do
    let bytes_buf = Bytes.init (len + 11) (fun i -> Char.chr ((i * 53) land 0xFF)) in
    let big = Bigbuf.of_bytes bytes_buf in
    Cipher.xor_into k ~nonce:len bytes_buf ~off:3 ~len;
    Cipher.xor_big st ~nonce:len big ~off:3 ~len;
    Alcotest.(check bytes) (Printf.sprintf "len %d" len) bytes_buf (Bigbuf.to_bytes big)
  done

(* xor_run must equal per-region xor_big for both engines — in
   particular the Chacha20 8-lane SIMD core against its scalar core
   (region counts above and below 8, region lengths crossing 64-byte
   keystream blocks and stopping mid-block). *)
let test_xor_run_matches_xor_big () =
  List.iter
    (fun engine ->
      let st = Cipher.init engine (Cipher.key_of_int 555) in
      List.iter
        (fun (count, len, stride) ->
          let total = (count * stride) + 16 in
          let mk () = Bigbuf.of_bytes (Bytes.init total (fun i -> Char.chr ((i * 31) land 0xFF))) in
          let by_run = mk () and by_block = mk () in
          let nonces = Array.init count (fun i -> 1000 + (i * 3)) in
          Cipher.xor_run st ~nonces by_run ~off:8 ~stride ~len;
          Array.iteri
            (fun i nonce -> Cipher.xor_big st ~nonce by_block ~off:(8 + (i * stride)) ~len)
            nonces;
          Alcotest.(check bytes)
            (Printf.sprintf "%s count=%d len=%d" (Cipher.engine_name engine) count len)
            (Bigbuf.to_bytes by_block) (Bigbuf.to_bytes by_run))
        [ (1, 40, 48); (3, 160, 168); (8, 160, 160); (9, 64, 72); (20, 328, 328); (5, 0, 8) ])
    [ Cipher.Prf_xor; Cipher.Chacha20 ]

let test_chacha20_engine_properties () =
  let k = Cipher.key_of_int 808 in
  let st = Cipher.init Cipher.Chacha20 k in
  Alcotest.(check bool) "engine tag" true (Cipher.state_engine st = Cipher.Chacha20);
  let len = 200 in
  let plain = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
  let b1 = Bigbuf.of_bytes plain and b2 = Bigbuf.of_bytes plain in
  Cipher.xor_big st ~nonce:1 b1 ~off:0 ~len;
  Cipher.xor_big st ~nonce:2 b2 ~off:0 ~len;
  Alcotest.(check bool) "nonces separate streams" true
    (not (Bytes.equal (Bigbuf.to_bytes b1) (Bigbuf.to_bytes b2)));
  Alcotest.(check bool) "ciphertext differs from plaintext" true
    (not (Bytes.equal (Bigbuf.to_bytes b1) plain));
  Cipher.xor_big st ~nonce:1 b1 ~off:0 ~len;
  Alcotest.(check bytes) "involution" plain (Bigbuf.to_bytes b1);
  let st' = Cipher.init Cipher.Chacha20 (Cipher.key_of_int 809) in
  let b3 = Bigbuf.of_bytes plain in
  Cipher.xor_big st' ~nonce:1 b3 ~off:0 ~len;
  Alcotest.(check bool) "keys separate streams" true
    (not (Bytes.equal (Bigbuf.to_bytes b1) (Bigbuf.to_bytes b3)))

(* ---------------- unbiased range mapping ---------------- *)

(* bound = 7 does not divide 2^62, so the plain modulo reduction is
   (infinitesimally) biased; the rejection sampler must stay uniform.
   With 70,000 draws each residue expects 10,000; +/-10% is ~13 sigma. *)
let test_to_range_unbiased_uniform () =
  let k = Prf.key_of_int 314 in
  let bound = 7 in
  let draws = 70_000 in
  let buckets = Array.make bound 0 in
  for x = 0 to draws - 1 do
    let v = Prf.to_range_unbiased k x ~bound in
    if v < 0 || v >= bound then Alcotest.fail "to_range_unbiased out of bounds";
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = draws / bound in
  Array.iteri
    (fun i c ->
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "residue %d count %d too far from %d" i c expected)
    buckets;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prf.to_range_unbiased: bound must be positive") (fun () ->
      ignore (Prf.to_range_unbiased k 0 ~bound:0))

let prop_to_range_unbiased_bounds =
  Util.qcheck_case ~name:"to_range_unbiased stays in bounds and is deterministic"
    QCheck2.Gen.(triple int (int_range 1 1_000_000) int)
    (fun (x, bound, seed) ->
      let k = Prf.key_of_int seed in
      let v = Prf.to_range_unbiased k x ~bound in
      v >= 0 && v < bound && v = Prf.to_range_unbiased k x ~bound)

let prop_permutation_valid =
  Util.qcheck_case ~name:"random permutation is a bijection"
    QCheck2.Gen.(pair (int_range 0 200) int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      Permutation.is_valid (Permutation.random rng n))

let prop_cipher_roundtrip =
  Util.qcheck_case ~name:"cipher roundtrips arbitrary bytes"
    QCheck2.Gen.(triple string int int)
    (fun (s, keyseed, nonce) ->
      let k = Cipher.key_of_int keyseed in
      let plain = Bytes.of_string s in
      Bytes.equal plain (Cipher.decrypt k ~nonce (Cipher.encrypt k ~nonce plain)))

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
    ("permutation permute_array", `Quick, test_permutation_permute_array);
    ("permutation identity", `Quick, test_permutation_identity);
    ("cipher roundtrip", `Quick, test_cipher_roundtrip);
    ("cipher nonce freshness", `Quick, test_cipher_nonce_freshness);
    ("cipher xor vs bytewise reference", `Quick, test_xor_stream_matches_bytewise_reference);
    ("cipher xor_into region", `Quick, test_xor_into_region);
    ("cipher key separation", `Quick, test_cipher_key_separation);
    ("chacha20 rfc8439 block vector", `Quick, test_chacha20_kat_block);
    ("chacha20 rfc8439 sunscreen vector", `Quick, test_chacha20_kat_sunscreen);
    ("cipher engine ids", `Quick, test_engine_ids);
    ("cipher xor_big matches bytes path", `Quick, test_xor_big_matches_bytes_path);
    ("cipher xor_run matches xor_big", `Quick, test_xor_run_matches_xor_big);
    ("chacha20 engine properties", `Quick, test_chacha20_engine_properties);
    ("prf to_range_unbiased uniformity", `Quick, test_to_range_unbiased_uniform);
    prop_to_range_unbiased_bounds;
    prop_permutation_valid;
    prop_cipher_roundtrip;
    prop_rng_int_bounds;
  ]
