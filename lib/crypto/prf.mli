(** Keyed pseudo-random function on machine integers.

    Stands in for the paper's random-oracle hash functions (see §2 of the
    paper and §5 of DESIGN.md). Not cryptographically strong — it is a
    splitmix64-style mixer — but it is a deterministic keyed function with
    good avalanche behaviour, which is all the algorithms observe. *)

type key
(** An immutable PRF key. *)

val key_of_int : int -> key
(** Derive a key from an integer seed. *)

val fresh_key : Rng.t -> key
(** Draw a key from a generator. *)

val key_to_raw : key -> int64
(** Serialize a key to its raw word — for Alice-private persistence
    (e.g. the ORAM session metadata, sealed like any other data). *)

val key_of_raw : int64 -> key
(** Rebuild a key from {!key_to_raw}. *)

val value : key -> int -> int64
(** [value k x] is the 64-bit PRF output on input [x]. *)

val value_pair : key -> int -> int -> int64
(** [value_pair k x y] hashes the pair [(x, y)] — used to derive per-level
    or per-round functions from one master key. *)

val to_range : key -> int -> bound:int -> int
(** [to_range k x ~bound] maps input [x] into [\[0, bound)] by reducing a
    62-bit PRF draw modulo [bound]. The reduction carries the classic
    modulo bias — at most [bound / 2^62] per residue, immeasurable for
    the small bounds the algorithms use — and every pinned seed, pair
    certificate, and trace digest in the repo depends on its exact
    output. *)
