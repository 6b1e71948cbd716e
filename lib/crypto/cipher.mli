(** Block sealing: pluggable keystream engines.

    The paper assumes Alice encrypts every block "using a semantically
    secure encryption scheme such that re-encryption of the same value is
    indistinguishable from an encryption of a different value" (§1).
    Storage seals each block payload under a per-write nonce with one of
    two keystream engines:

    - {!Prf_xor} — the original splitmix-PRF keystream. Not
      cryptographically strong, but bit-compatible with every store,
      pinned seed, and trace digest produced before engines existed, so
      it stays the default.
    - {!Chacha20} — a real RFC 8439 ChaCha20 keystream (96-bit nonce,
      32-bit block counter), verified against the RFC's known-answer
      vectors, with an 8-lane SIMD core that seals whole runs at GB/s.

    The engine is recorded in the store header; reopening a store under a
    different engine is rejected (see DESIGN.md §13). Either way the
    adversary model only ever inspects the address trace (DESIGN.md §5) —
    the engine choice affects throughput and the strength of the sealing
    simulation, never the trace. *)

type key

val key_of_int : int -> key
val fresh_key : Rng.t -> key

(** {1 Engines} *)

type engine = Prf_xor | Chacha20

val engine_id : engine -> int64
(** Stable on-disk identifier ({!Prf_xor} = 1, {!Chacha20} = 2), recorded
    in store and journal headers. *)

val engine_of_id : int64 -> engine option
val engine_name : engine -> string
val engine_of_name : string -> engine option

type state
(** A key expanded for one engine: immutable after {!init}. *)

val init : engine -> key -> state
val state_engine : state -> engine

val xor_big : state -> nonce:int -> Bigbuf.t -> off:int -> len:int -> unit
(** XOR the [(key, nonce)] keystream over [buf[off .. off+len)] in place
    (XOR is an involution: the same call seals and opens). For {!Prf_xor}
    this is bit-identical to the historical {!xor_into} on the same
    bytes; for {!Chacha20} the 12-byte RFC nonce is
    [0x00000000 || le64 nonce] with the block counter starting at 0. *)

val xor_run : state -> nonces:int array -> Bigbuf.t -> off:int -> stride:int -> len:int -> unit
(** [xor_run st ~nonces buf ~off ~stride ~len] seals [Array.length nonces]
    equally-spaced regions in one call: region [i] is
    [buf[off + i*stride .. +len)] under [nonces.(i)] — byte-for-byte the
    same transform as {!xor_big} on each region, but the Chacha20 engine
    batches 8 regions per SIMD dispatch, which is where run sealing gets
    its throughput. Requires [0 <= len <= stride]. *)

val chacha20_xor_raw :
  key:string -> nonce:string -> counter:int -> Bigbuf.t -> off:int -> len:int -> unit
(** Direct RFC 8439 keystream XOR with an explicit 32-byte key, 12-byte
    nonce and initial block counter — the primitive the known-answer
    tests exercise. *)

(** {1 Legacy byte-buffer interface (Prf_xor keystream)} *)

val encrypt : key -> nonce:int -> bytes -> bytes
(** [encrypt k ~nonce plain] returns a fresh ciphertext buffer. The same
    [(key, nonce)] pair must never be reused for different plaintexts;
    callers bump the nonce on every write. *)

val decrypt : key -> nonce:int -> bytes -> bytes
(** Inverse of [encrypt] for the same key and nonce. *)

val xor_stream : key -> nonce:int -> bytes -> bytes
(** [xor_stream k ~nonce src] is a fresh buffer holding [src] XORed with
    the [(k, nonce)] Prf_xor keystream. *)

val xor_into : key -> nonce:int -> bytes -> off:int -> len:int -> unit
(** In-place Prf_xor keystream XOR over a [bytes] region — the historical
    sealing primitive, kept as the reference implementation the Bigbuf
    path is parity-tested against. *)
