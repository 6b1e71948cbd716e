(** Positional file I/O on {!Odex_crypto.Bigbuf} buffers.

    pread/pwrite C stubs (no shared file offset, runtime lock released
    around the syscall) wrapped in EINTR-hardened full-transfer loops.
    The file backend and the journal move block payloads through these;
    headers and other small cold-path records stay on [bytes]. *)

val read_all :
  who:string -> Unix.file_descr -> pos:int -> Odex_crypto.Bigbuf.t -> off:int -> len:int -> unit
(** Loop one positioned read syscall (EINTR retried) until [len] bytes
    landed; [Failure who^": short read"] if the file ends first. Bounds
    on [off]/[len] are validated against the buffer. *)

val write_all :
  Unix.file_descr -> pos:int -> Odex_crypto.Bigbuf.t -> off:int -> len:int -> unit

val read_upto :
  Unix.file_descr -> pos:int -> Odex_crypto.Bigbuf.t -> off:int -> len:int -> int
(** Like {!read_all} but stops at end of file, returning the number of
    bytes read — a short read here is a crash boundary, not an error
    (journal replay scans with this). *)
