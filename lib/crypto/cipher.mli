(** Block sealing: the ChaCha20 keystream.

    The paper assumes Alice encrypts every block "using a semantically
    secure encryption scheme such that re-encryption of the same value is
    indistinguishable from an encryption of a different value" (§1).
    Storage seals each block payload under a per-write nonce with a real
    RFC 8439 ChaCha20 keystream (96-bit nonce, 32-bit block counter),
    verified against the RFC's known-answer vectors, with an 8-lane SIMD
    core that seals whole runs at GB/s.

    The engine id is recorded in the store and journal headers; any other
    id is a retired engine and is refused on reopen (see DESIGN.md §13).
    The adversary model only ever inspects the address trace (DESIGN.md
    §5): sealing changes the bytes Bob holds, never the trace. *)

type key

val key_of_int : int -> key

(** {1 Engine} *)

type engine = Chacha20
(** The one sealing engine. The type has a single value; it survives
    only because the benchmark harness names it ({!init},
    [Storage.create ?cipher_engine]). *)

val engine_id : engine -> int64
(** Stable on-disk identifier ({!Chacha20} = 2), recorded in store and
    journal headers. Id 1 belonged to a retired engine. *)

val check_engine_id : who:string -> int64 -> unit
(** [check_engine_id ~who id] accepts {!Chacha20}'s id and raises
    [Invalid_argument "<who>: retired cipher engine id <id>"] on any
    other: ciphertext sealed under another keystream must be refused,
    never unsealed into garbage. *)

val engine_name : engine -> string

type state
(** A key expanded for the engine: immutable after {!init}. *)

val init : engine -> key -> state
(** Expand a key for ChaCha20, the one value of {!engine}. *)

val xor_big : state -> nonce:int -> Bigbuf.t -> off:int -> len:int -> unit
(** XOR the [(key, nonce)] keystream over [buf[off .. off+len)] in place
    (XOR is an involution: the same call seals and opens). The 12-byte
    RFC nonce is [0x00000000 || le64 nonce] with the block counter
    starting at 0. *)

val xor_run : state -> nonces:int array -> Bigbuf.t -> off:int -> stride:int -> len:int -> unit
(** [xor_run st ~nonces buf ~off ~stride ~len] seals [Array.length nonces]
    equally-spaced regions in one call: region [i] is
    [buf[off + i*stride .. +len)] under [nonces.(i)] — byte-for-byte the
    same transform as {!xor_big} on each region, but batched 8 regions per
    SIMD dispatch, which is where run sealing gets its throughput.
    Requires [0 <= len <= stride]. *)

val chacha20_xor_raw :
  key:string -> nonce:string -> counter:int -> Bigbuf.t -> off:int -> len:int -> unit
(** Direct RFC 8439 keystream XOR with an explicit 32-byte key, 12-byte
    nonce and initial block counter — the primitive the known-answer
    tests exercise. *)
