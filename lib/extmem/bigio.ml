module Bigbuf = Odex_crypto.Bigbuf

external pread_stub : Unix.file_descr -> int -> Bigbuf.t -> int -> int -> int = "odex_pread"
external pwrite_stub : Unix.file_descr -> int -> Bigbuf.t -> int -> int -> int = "odex_pwrite"

let rec retry_eintr f =
  match f () with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let check buf ~pos ~off ~len op =
  if pos < 0 then invalid_arg ("Bigio." ^ op ^ ": negative file position");
  if off < 0 || len < 0 || off + len > Bigbuf.length buf then
    invalid_arg ("Bigio." ^ op ^ ": buffer region out of bounds")

let read_all ~who fd ~pos buf ~off ~len =
  check buf ~pos ~off ~len "read_all";
  let done_ = ref 0 in
  while !done_ < len do
    let k = retry_eintr (fun () -> pread_stub fd (pos + !done_) buf (off + !done_) (len - !done_)) in
    if k = 0 then failwith (who ^ ": short read");
    done_ := !done_ + k
  done

let write_all fd ~pos buf ~off ~len =
  check buf ~pos ~off ~len "write_all";
  let done_ = ref 0 in
  while !done_ < len do
    done_ :=
      !done_ + retry_eintr (fun () -> pwrite_stub fd (pos + !done_) buf (off + !done_) (len - !done_))
  done

let read_upto fd ~pos buf ~off ~len =
  check buf ~pos ~off ~len "read_upto";
  let done_ = ref 0 in
  let eof = ref false in
  while (not !eof) && !done_ < len do
    let k = retry_eintr (fun () -> pread_stub fd (pos + !done_) buf (off + !done_) (len - !done_)) in
    if k = 0 then eof := true else done_ := !done_ + k
  done;
  !done_
